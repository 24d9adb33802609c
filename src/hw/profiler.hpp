// Simulated CUDA-event per-layer profiling (Section V-B1).
//
// Real per-layer event timing adds instrumentation overhead to every
// kernel, which is why the paper observes that the *sum* of per-layer
// latencies slightly exceeds the measured end-to-end latency — and why its
// profiler-based estimator rescales by a ratio instead of summing. The
// simulator reproduces that artifact: each profiled kernel reads
// true_latency + event_overhead, perturbed by measurement noise, while the
// table's end-to-end reference comes from the unperturbed measurement
// protocol. The profiler takes both as inputs — the kernel list from
// DeviceModel::kernel_costs and the end-to-end number from a
// LatencyMeasurer — so it never reads a graph.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/device.hpp"
#include "hw/faults.hpp"

namespace netcut::hw {

struct ProfiledLayer {
  int node = -1;
  std::string name;
  double latency_ms = 0.0;   // per-layer event timing (includes overhead)
  bool fused_away = false;   // absorbed kernels appear with 0 latency
  /// Fraction of profile runs that survived fault retry + MAD rejection;
  /// 1.0 when no fault schedule is active. Estimators treat low-confidence
  /// rows as unreliable and interpolate around them.
  double confidence = 1.0;
};

struct LatencyTable {
  std::string network;
  std::vector<ProfiledLayer> layers;
  double end_to_end_ms = 0.0;  // measured without per-layer events

  /// Sum of the per-layer event timings (> end_to_end_ms by the overhead).
  double layer_sum_ms() const;
};

inline constexpr double kEventOverheadUs = 0.7;  // added to each profiled kernel
inline constexpr int kProfileRuns = 50;  // per-layer timings averaged over runs
/// Root of every table's noise stream ("profiler/<n>" labels).
inline constexpr std::uint64_t kProfilerSeed = 4321;

struct ProfilerConfig {
  double noise_sigma = 0.02;       // per-layer timing noise
  int max_retries = 3;             // extra attempts per failed profile run
  /// Fault schedule override; nullptr falls back to FaultModel::global().
  const FaultModel* faults = nullptr;
};

class LayerProfiler {
 public:
  explicit LayerProfiler(ProfilerConfig config = {});

  /// Builds the per-layer latency table of the network `name` from its
  /// kernel costs, one row per kernel, and its measured end-to-end latency.
  /// One table per unmodified network is all the profiler-based estimator
  /// needs.
  LatencyTable profile(const std::string& name, double end_to_end_ms,
                       const std::vector<KernelCost>& kernels);

 private:
  ProfilerConfig config_;
  std::uint64_t table_counter_ = 0;
};

}  // namespace netcut::hw
