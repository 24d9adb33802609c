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
#include <functional>
#include <string>
#include <vector>

#include "nn/graph.hpp"

namespace netcut::hw {

enum class Precision { kFp32, kInt8 };

const char* to_string(Precision p);

/// The simulated device's name (the roofline's constants live in
/// device.cpp: a Jetson-Xavier-like GPU, 1400 fp32 / 11000 int8 GFLOP/s
/// peak, 137 GB/s LPDDR4x, 9 us per kernel launch).
inline constexpr char kDeviceName[] = "xavier-sim";

struct KernelCost {
  int node = -1;
  std::string name;
  double latency_ms = 0.0;
  bool fused_away = false;  // absorbed into the producer kernel
  nn::LayerCost cost;       // the node's work, fused away or not
};

/// Sum of the kernel latencies of the nodes strictly after `resume`, in
/// order; resume == 0 is the whole network. `kernels` is one network's
/// kernel_costs (node ids 1..size()), so 0 <= resume <= size().
double sum_latency_ms(const std::vector<KernelCost>& kernels, int resume = 0);

class DeviceModel {
 public:
  /// `perf_factor` scales compute throughput and memory bandwidth (launch
  /// overhead and efficiencies unchanged): the cheap, principled way to
  /// model a heterogeneous serving fleet of faster/slower replicas of the
  /// same architecture, e.g. DeviceModel(0.5) for a half-speed sibling.
  /// Throws std::invalid_argument unless perf_factor > 0.
  explicit DeviceModel(double perf_factor = 1.0);

  /// True (noise-free) latency of every node for one batched kernel launch
  /// over `batch` images. Fused-away nodes get 0.
  std::vector<KernelCost> kernel_costs(const nn::Graph& graph, Precision precision,
                                       bool fuse, int batch = 1) const;

  /// True latency in ms of a batch-`batch` pass over the nodes strictly
  /// after `resume`: sum_latency_ms of the graph's kernel costs.
  /// resume == 0 is the whole network. A positive `resume` prices the
  /// suffix a prefix-resume pass executes, the second-stage cost of a
  /// cascade escalation that reuses the shared trunk activation. At a legal
  /// cut site fusion never reaches across the boundary (cuts land on
  /// block-end ReLU/Add nodes; a following conv never folds backward into
  /// them), so the suffix sum composes exactly: full = prefix + suffix.
  double network_latency_ms(const nn::Graph& graph, Precision precision, bool fuse,
                            int batch = 1, int resume = 0) const;

  /// The device curve a serve::ServeOption takes: b -> network_latency_ms(
  /// graph, precision, fuse, b, resume) for b in 1..max_batch. The values
  /// are computed up front, so the curve holds no mutable state and is safe
  /// to call from any thread; a batch outside 1..max_batch throws
  /// std::out_of_range.
  std::function<double(int)> batch_curve(const nn::Graph& graph, Precision precision, bool fuse,
                                         int max_batch, int resume = 0) const;

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

  double peak_gflops_fp32_;
  double peak_gflops_int8_;
  double mem_bandwidth_gbps_;
};

}  // namespace netcut::hw
