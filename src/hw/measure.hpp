// The paper's measurement protocol (Section IV-B2): warm the GPU with 200
// inferences, then report the mean over another 800 timed runs. The
// simulator adds a clock-ramp warm-up transient and lognormal run-to-run
// noise on top of a true latency (the DeviceModel's, passed in as a
// number: the measurer never sees a graph), so measured numbers have the
// statistical texture of real device timings while staying deterministic
// for a given seed.
//
// The protocol self-heals: failed runs are retried with bounded backoff
// and, under an active hw::FaultModel, surviving samples pass MAD-based
// outlier rejection (kMadK robust sigmas) and the reported mean is the
// trimmed aggregate with an attached confidence — so throttle spikes and
// dropped runs degrade the confidence instead of silently poisoning the
// latency estimate. With no active faults the same loop runs on an inert
// fault stream (no run fails, every multiplier is exactly 1.0) and nothing
// is trimmed, so clean numbers are those of the plain 200 + 800 protocol,
// bit for bit.
#pragma once

#include "hw/faults.hpp"
#include "util/rng.hpp"

namespace netcut::hw {

inline constexpr int kWarmupRuns = 200;
inline constexpr int kTimedRuns = 800;
/// Root of every measurement's noise stream ("measure/<n>" labels).
inline constexpr std::uint64_t kMeasureSeed = 1234;

struct MeasureConfig {
  double noise_sigma = 0.012;      // lognormal sigma per run
  int max_retries = 3;             // extra attempts per failed timed run
  /// Fault schedule override; nullptr falls back to FaultModel::global()
  /// (the NETCUT_FAULTS environment schedule).
  const FaultModel* faults = nullptr;
};

struct Measurement {
  double mean_ms = 0.0;   // trimmed mean when a fault schedule is active
  double stdev_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  double median_ms = 0.0;
  int runs = 0;           // samples that survived retry + rejection
  int failed_runs = 0;    // timed runs lost even after retries
  int retries = 0;        // retry attempts spent on failed runs
  int outliers_rejected = 0;
  double confidence = 1.0;  // surviving-sample fraction of kTimedRuns
};

class LatencyMeasurer {
 public:
  explicit LatencyMeasurer(MeasureConfig config = {});

  /// Full protocol: 200 warm-up + 800 timed single-image runs of a pass
  /// whose noise-free latency is `true_ms` (a whole network, or the suffix
  /// a cascade escalation resumes). Each call consumes one measurement
  /// label, so the n-th call of a measurer draws the same noise whatever
  /// it times.
  Measurement measure(double true_ms);

  /// One simulated run at the given global run index (0 = cold start).
  double simulate_run_ms(double true_ms, int run_index, util::Rng& rng) const;

  const MeasureConfig& config() const { return config_; }

 private:
  MeasureConfig config_;
  std::uint64_t measurement_counter_ = 0;
};

}  // namespace netcut::hw
