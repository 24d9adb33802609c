#include "hw/profiler.hpp"

#include <cmath>
#include <utility>

#include "util/stats.hpp"

namespace netcut::hw {

double LatencyTable::layer_sum_ms() const {
  double s = 0.0;
  for (const ProfiledLayer& l : layers) s += l.latency_ms;
  return s;
}

LayerProfiler::LayerProfiler(ProfilerConfig config) : config_(config) {}

LatencyTable LayerProfiler::profile(const std::string& name, double end_to_end_ms,
                                    const std::vector<KernelCost>& kernels) {
  LatencyTable table;
  table.network = name;
  table.end_to_end_ms = end_to_end_ms;

  const std::string table_label = "profiler/" + std::to_string(table_counter_++);
  util::Rng rng(util::derive_seed(kProfilerSeed, table_label));
  const FaultModel& model = config_.faults != nullptr ? *config_.faults : FaultModel::global();

  for (const KernelCost& kc : kernels) {
    ProfiledLayer pl;
    pl.node = kc.node;
    pl.name = kc.name;
    pl.fused_away = kc.fused_away;
    if (!kc.fused_away) {
      // Per-layer fault stream (inert without a schedule): event timings
      // fail and spike just like end-to-end runs. Each surviving run keeps
      // its noise factor times its fault multiplier (exactly the noise when
      // clean); under a schedule the factors are MAD-trimmed and the row
      // carries its surviving-run fraction as confidence.
      FaultStream faults = model.stream(table_label + "/node" + std::to_string(kc.node));
      std::vector<double> factors;
      factors.reserve(static_cast<std::size_t>(kProfileRuns));
      for (int r = 0; r < kProfileRuns; ++r) {
        for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
          const RunFault f = faults.next(r);
          if (!f.failed) {
            factors.push_back(rng.lognormal(0.0, config_.noise_sigma) * f.multiplier);
            break;
          }
        }
      }
      if (factors.empty()) {
        pl.latency_ms = 0.0;  // no usable timing: flagged by confidence 0
        pl.confidence = 0.0;
      } else {
        const std::vector<double> kept =
            faults.active() ? util::mad_trim(factors, util::median(factors), kMadK)
                            : std::move(factors);
        const double event_ms = kc.latency_ms + kEventOverheadUs * 1e-3;
        // Explicit fma, one run after another, so a row's rounding does not
        // depend on how the compiler contracts or vectorizes this loop.
        double sum = 0.0;
        for (double x : kept) sum = std::fma(event_ms, x, sum);
        pl.latency_ms = sum / static_cast<double>(kept.size());
        pl.confidence =
            static_cast<double>(kept.size()) / static_cast<double>(kProfileRuns);
      }
    }
    table.layers.push_back(std::move(pl));
  }
  return table;
}

}  // namespace netcut::hw
