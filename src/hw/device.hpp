// Analytical embedded-GPU timing model — the substitution for the paper's
// NVIDIA Jetson Xavier (see DESIGN.md).
//
// Per-kernel latency is a roofline: launch overhead plus the max of a
// compute term (FLOPs over effective throughput) and a memory term
// (activation + weight traffic over bandwidth). Effective compute
// throughput depends on operator class (depthwise convolutions are
// memory-bound and run far below peak) and on output spatial size (small
// late-network grids under-utilize the GPU). The spatial term is what makes
// latency mildly *non-linear* in the cutpoint — the effect the paper's
// RBF-SVR estimator captures and a linear model does not.
//
// Graph latency sums kernels after an optional fusion pass
// (BatchNorm/ReLU folded into their producer, as TensorRT-style deployment
// does; the paper enables layer fusion in its deployment optimizations).
//
// Batched execution (the serving layer) launches each kernel once for the
// whole batch: launch overhead is paid once, weights stream from DRAM once,
// activation traffic and FLOPs scale with the batch, and the utilization
// knee sees batch x spatial output elements — which is why a batch of 8 is
// far cheaper than 8 single-image passes. batch == 1 reproduces the
// original expression bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/graph.hpp"

namespace netcut::hw {

enum class Precision { kFp32, kInt8 };

const char* to_string(Precision p);

struct DeviceConfig {
  std::string name = "xavier-sim";
  double peak_gflops_fp32 = 1400.0;
  double peak_gflops_int8 = 11000.0;   // tensor-core / DLA int8 path
  double mem_bandwidth_gbps = 137.0;   // LPDDR4x
  double kernel_launch_us = 9.0;
  double efficiency_conv = 0.55;       // dense spatial convolutions
  double efficiency_pointwise = 0.45;  // 1x1 convolutions
  double efficiency_depthwise = 0.12;  // memory-bound
  double efficiency_dense = 0.35;
  /// Output-grid utilization knee: efficiency scales by s/(s+knee) where s
  /// is the output spatial element count.
  double spatial_knee = 16.0;
};

/// A derived device config with compute throughput and memory bandwidth
/// scaled by `perf_factor` (launch overhead and efficiencies unchanged) —
/// the cheap, principled way to model a heterogeneous serving fleet:
/// faster/slower replicas of the same architecture, e.g.
/// scaled_device(base, 0.5, "xavier-slow") for a half-speed sibling.
DeviceConfig scaled_device(const DeviceConfig& base, double perf_factor, std::string name);

struct KernelCost {
  int node = -1;
  std::string name;
  double latency_ms = 0.0;
  bool fused_away = false;  // absorbed into the producer kernel
};

class DeviceModel {
 public:
  explicit DeviceModel(DeviceConfig config = {});

  const DeviceConfig& config() const { return config_; }

  /// True (noise-free) latency of every node for one batched kernel launch
  /// over `batch` images. Fused-away nodes get 0.
  std::vector<KernelCost> kernel_costs(const nn::Graph& graph, Precision precision,
                                       bool fuse, int batch = 1) const;

  /// True end-to-end latency of a batch-`batch` pass in ms.
  double network_latency_ms(const nn::Graph& graph, Precision precision, bool fuse,
                            int batch = 1) const;

  /// True latency of the suffix a prefix-resume pass executes: the sum of
  /// kernel costs for nodes strictly after `resume` — the second-stage cost
  /// of a cascade escalation that reuses the shared trunk activation. At a
  /// legal cut site fusion never reaches across the boundary (cuts land on
  /// block-end ReLU/Add nodes; a following conv never folds backward into
  /// them), so the suffix sum composes exactly: full = prefix + suffix.
  /// resume == 0 reproduces network_latency_ms bit-for-bit.
  double network_latency_from_ms(const nn::Graph& graph, Precision precision, bool fuse,
                                 int resume, int batch = 1) const;

  /// Predicted end-to-end fp32/int8 latency ratio for the graph — the
  /// model's int8 speedup term. The measured counterpart is the wall-clock
  /// ratio of Network::forward to QuantizedNetwork::forward_int8, the one
  /// integer path: `micro_kernels --json` and the quant tests report both
  /// side by side, and perfbench `infer` reports the measured ratio as
  /// quant.int8_speedup, so the analytical term can be sanity-checked
  /// against real integer execution.
  double int8_speedup(const nn::Graph& graph, bool fuse, int batch = 1) const;

  /// Which nodes are absorbed into their producer kernel under fusion
  /// (BatchNorm / ReLU / ReLU6 whose producer is a compute node and whose
  /// producer has no other consumer).
  static std::vector<bool> fused_away(const nn::Graph& graph);

 private:
  double node_latency_ms(const nn::Layer& layer, const nn::LayerCost& cost,
                         Precision precision, int batch) const;

  DeviceConfig config_;
};

}  // namespace netcut::hw
