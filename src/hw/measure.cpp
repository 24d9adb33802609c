#include "hw/measure.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace netcut::hw {

constexpr double kColdPenalty = 0.6;       // initial clock-ramp latency multiplier
constexpr double kWarmupDecayRuns = 60.0;  // e-folding of the cold penalty

LatencyMeasurer::LatencyMeasurer(MeasureConfig config) : config_(config) {}

double LatencyMeasurer::simulate_run_ms(double true_ms, int run_index, util::Rng& rng) const {
  const double ramp =
      1.0 + kColdPenalty * std::exp(-static_cast<double>(run_index) / kWarmupDecayRuns);
  return true_ms * ramp * rng.lognormal(0.0, config_.noise_sigma);
}

Measurement LatencyMeasurer::measure(double true_ms) {
  const std::string label = "measure/" + std::to_string(measurement_counter_++);
  util::Rng rng(util::derive_seed(kMeasureSeed, label));
  const FaultModel& model = config_.faults != nullptr ? *config_.faults : FaultModel::global();

  // One fault stream per measurement, derived from the same stable label as
  // the noise RNG. Without a schedule the stream is inert: no run fails and
  // every multiplier is exactly 1.0, so the clean protocol is this loop too.
  FaultStream faults = model.stream(label);
  for (int i = 0; i < kWarmupRuns; ++i) {
    faults.next(i);
    simulate_run_ms(true_ms, i, rng);
  }

  Measurement m;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(kTimedRuns));
  for (int i = 0; i < kTimedRuns; ++i) {
    const int idx = kWarmupRuns + i;
    bool timed = false;
    double value = 0.0;
    // Bounded retry with backoff: each retry is a fresh device run at the
    // same schedule position (it consumes its own fault draw), so a
    // transient drop usually recovers within a couple of attempts.
    for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
      if (attempt > 0) ++m.retries;
      const RunFault f = faults.next(idx);
      if (!f.failed) {
        value = simulate_run_ms(true_ms, idx, rng) * f.multiplier;
        timed = true;
        break;
      }
    }
    if (timed)
      samples.push_back(value);
    else
      ++m.failed_runs;
  }
  if (samples.empty())
    throw std::runtime_error(
        "LatencyMeasurer::measure: every timed run failed under the active fault schedule");

  // Under a schedule, spikes and burst contamination are trimmed and the
  // aggregate is the trimmed mean; clean samples are kept whole.
  const double med = util::median(samples);
  const std::size_t taken = samples.size();
  const std::vector<double> kept =
      faults.active() ? util::mad_trim(samples, med, kMadK) : std::move(samples);
  m.outliers_rejected = static_cast<int>(taken - kept.size());

  m.mean_ms = util::mean(kept);
  m.stdev_ms = util::stdev(kept);
  m.min_ms = util::min_of(kept);
  m.max_ms = util::max_of(kept);
  m.median_ms = med;
  m.runs = static_cast<int>(kept.size());
  m.confidence = static_cast<double>(kept.size()) / static_cast<double>(kTimedRuns);
  return m;
}

}  // namespace netcut::hw
