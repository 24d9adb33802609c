// The paper's measurement protocol (Section IV-B2): warm the GPU with 200
// inferences, then report the mean over another 800 timed runs. The
// simulator adds a clock-ramp warm-up transient and lognormal run-to-run
// noise on top of the DeviceModel's true latency, so measured numbers have
// the statistical texture of real device timings while staying
// deterministic for a given seed.
//
// The protocol self-heals: failed runs are retried with bounded backoff
// and, under an active hw::FaultModel, surviving samples pass MAD-based
// outlier rejection and the reported mean is the trimmed aggregate with an
// attached confidence — so throttle spikes and dropped runs degrade the
// confidence instead of silently poisoning the latency estimate. With no
// active faults the same loop runs on an inert fault stream (no run fails,
// every multiplier is exactly 1.0) and nothing is trimmed, so clean numbers
// are those of the plain 200 + 800 protocol, bit for bit.
#pragma once

#include "hw/device.hpp"
#include "hw/faults.hpp"
#include "util/rng.hpp"

namespace netcut::hw {

struct MeasureConfig {
  int warmup_runs = 200;
  int timed_runs = 800;
  double noise_sigma = 0.012;      // lognormal sigma per run
  double cold_penalty = 0.6;       // initial clock-ramp latency multiplier
  double warmup_decay_runs = 60.0; // e-folding of the cold penalty
  std::uint64_t seed = 1234;
  // Self-healing knobs (only consulted when a fault schedule is active).
  int max_retries = 3;             // extra attempts per failed timed run
  double mad_k = 3.5;              // reject samples beyond k robust sigmas
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
  double confidence = 1.0;  // surviving-sample fraction of timed_runs
};

class LatencyMeasurer {
 public:
  LatencyMeasurer(const DeviceModel& device, MeasureConfig config = {});

  /// Full protocol: 200 warm-up + 800 timed runs of the whole network.
  /// `batch` > 1 times a batched pass (one launch per kernel for the whole
  /// batch); batch == 1 is the original single-image protocol, bit-identical.
  Measurement measure_network(const nn::Graph& graph, Precision precision, bool fuse,
                              int batch = 1);

  /// Same protocol over the suffix a prefix-resume pass executes (nodes
  /// strictly after `resume`) — the measured second-stage cost of a cascade
  /// escalation. Consumes one measurement label like any other measurement;
  /// resume == 0 times the whole network.
  Measurement measure_network_from(const nn::Graph& graph, Precision precision, bool fuse,
                                   int resume, int batch = 1);

  /// One simulated run at the given global run index (0 = cold start).
  double simulate_run_ms(double true_ms, int run_index, util::Rng& rng) const;

  const MeasureConfig& config() const { return config_; }

 private:
  Measurement measure_true_ms(double true_ms);

  const DeviceModel& device_;
  MeasureConfig config_;
  std::uint64_t measurement_counter_ = 0;
};

}  // namespace netcut::hw
