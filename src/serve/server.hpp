// BatchServer: the deadline-aware serving layer (the "one camera, one
// hand" control loop generalized to many concurrent clients).
//
// One step serves one batch: the greedy former picks the largest
// earliest-deadline prefix of the queue whose estimated batched latency
// still meets the batch's earliest deadline, the batch runs through the
// TRN's true batch-N forward path (bitwise identical to N single-image
// passes — see Network::forward_batch), and service time is charged by the
// device model's batched roofline plus seeded jitter and the optional
// NETCUT_FAULTS schedule.
//
// Like the prosthetic control loop, the server carries a Pareto front of
// TRN options (preferred first, fastest fallback last) and feeds every
// completion's deadline verdict to the shared MissRateWatchdog: a saturated
// queue — arrivals outpacing service — looks exactly like a degrading
// device, so the same breach policy sheds load by falling back to a faster
// TRN, and the same hysteresis steps back up once the queue calms and the
// slower network is predicted to fit again.
//
// The server is clock-agnostic: `now_ms` comes from the caller, so the
// deterministic simulated clock (tests/serve_sim.hpp) and a wall clock
// drive identical code.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "app/watchdog.hpp"
#include "core/cascade.hpp"
#include "hw/faults.hpp"
#include "nn/network.hpp"
#include "serve/batcher.hpp"
#include "serve/queue.hpp"
#include "util/ranked_mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace netcut::serve {

/// Input-adaptive cascade riding on a ServeOption: the option's net /
/// latency_ms describe the *shallow* first stage, and this struct adds the
/// calibrated escalation behaviour. Escalation is gated twice per request:
/// by confidence (softmax margin below `threshold`) and by deadline slack —
/// an escalation-worthy request still exits shallow when the nominal
/// two-stage time would blow its deadline (a confident-but-late answer
/// beats a better-but-missed one).
struct ServeCascade {
  bool enabled = false;
  /// Runs real two-stage compute. May be null for timing-only simulations:
  /// escalation wishes are then drawn per request id from a seed derived
  /// from the server seed, so the decision for a given request is identical
  /// however batches form or steal across workers.
  core::CascadeTrn* trn = nullptr;
  /// Escalate when the stage-1 softmax margin falls below this.
  double threshold = 0.0;
  /// Calibrated escalation mass (CascadeExplorer), used by batch formation
  /// to budget the expected stage-2 time, and as the wish probability of
  /// timing-only options.
  double p_escalate = 0.0;
  /// Nominal stage-2 latency for k escalated requests (the delta layers
  /// plus the deep head — e.g. hw::DeviceModel::batch_curve of the deep TRN
  /// at the cascade's resume node). Must be non-decreasing in k. Required
  /// when enabled.
  std::function<double(int)> stage2_ms;
};

/// One deployable TRN on the latency/accuracy Pareto front.
struct ServeOption {
  std::string name;  // paper-style "ResNet50/113"
  /// Runs the real batched forward for completions. May be null for
  /// timing-only simulations (outputs are then left empty). Ignored when
  /// cascade.trn is set (the cascade then owns compute).
  nn::Network* net = nullptr;
  /// Nominal (noise-free) service time of a batch of n on the device, e.g.
  /// hw::DeviceModel::batch_curve of the TRN's graph. Must be
  /// non-decreasing in n. With a cascade this is the *stage-1* (shallow)
  /// latency.
  std::function<double(int)> latency_ms;
  /// Confidence-gated second stage; disabled by default.
  ServeCascade cascade;
};

struct ServeConfig {
  int max_batch = 8;
  /// Nominal relative deadline clients are expected to attach, used only
  /// for the watchdog's recovery fit test (the prediction that the slower
  /// TRN would meet deadlines again).
  double nominal_deadline_ms = 10.0;
  double jitter_sigma = 0.015;  // lognormal service-time noise
  std::uint64_t seed = 7070;
  app::WatchdogConfig watchdog;
  /// Fault schedule; nullptr falls back to FaultModel::global()
  /// (the NETCUT_FAULTS environment schedule).
  const hw::FaultModel* faults = nullptr;
};

/// Sentinel worker index for completions not served by a fleet replica
/// (single-server use, or an admission-control rejection).
inline constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);

/// Outcome of one request.
struct Completion {
  std::uint64_t id = 0;
  double arrival_ms = 0.0;
  double deadline_ms = 0.0;
  double finish_ms = 0.0;
  std::uint32_t tenant = 0;   // copied from the request
  std::uint32_t slo = 0;      // copied from the request
  bool missed = false;        // finished after its deadline (or failed)
  bool failed = false;        // the serving run failed under faults
  /// Shed by admission control: never admitted, never served. An explicit
  /// verdict — a shed request is not a silent miss. finish_ms is the
  /// rejection time and missed/failed stay false.
  bool rejected = false;
  /// Served by the cascade's second stage (low stage-1 confidence and the
  /// deadline had slack for the deep TRN).
  bool escalated = false;
  std::size_t option = 0;     // Pareto-front index that served it
  std::size_t worker = kNoWorker;  // fleet replica that served it
  int batch = 0;              // size of the batch it rode in
  tensor::Tensor output;      // empty when the option has no network
};

/// One watchdog move, for reporting.
struct ServeSwitch {
  std::int64_t batch_index = 0;
  std::size_t from = 0;
  std::size_t to = 0;
  double window_miss_rate = 0.0;
};

struct ServeStats {
  std::int64_t served = 0;
  std::int64_t missed = 0;
  std::int64_t escalated = 0;  // requests the cascade sent to stage 2
  std::int64_t batches = 0;
  double busy_ms = 0.0;  // total service time charged
  std::vector<ServeSwitch> switches;
};

/// Nominal service time of a batch of n on `opt`, including the *expected*
/// escalation mass of an enabled cascade: latency_ms(n) plus the stage-2
/// time for ceil(p_escalate * n) requests. Batch formation and admission
/// control budget with this, so an escalating option is never batched as if
/// stage 2 were free.
double expected_latency_ms(const ServeOption& opt, int n);

class BatchServer {
 public:
  BatchServer(std::vector<ServeOption> options, RequestQueue& queue, ServeConfig config);

  /// Serve one batch from the queue at time `now_ms`. Returns the batch's
  /// completions in EDF order (empty when the queue is empty); every
  /// completion in the batch shares one finish time.
  ///
  /// Concurrency: one stepper at a time per server (each fleet worker owns
  /// its replica) — the jitter/fault streams are sequential draws. The
  /// reporting getters below are safe from any thread *concurrent with*
  /// the stepper: accounting state is guarded by mu_, taken only after the
  /// batch forward (no lock is held across compute, so a reporter never
  /// blocks behind a batch and the pool's completion wait never runs under
  /// a serve lock).
  std::vector<Completion> step(double now_ms);

  /// Pareto-front index currently in service (0 = preferred). Safe from
  /// any thread (the watchdog guards its own window state).
  std::size_t current_option() const { return watchdog_.current(); }

  /// Nominal latency of the fastest (last) Pareto option for a batch of n —
  /// the admission-control bound: if even this cannot meet a deadline,
  /// nothing on this replica can. Includes expected escalation mass.
  double fastest_latency_ms(int n) const { return expected_latency_ms(options_.back(), n); }

  /// Miss rate over the watchdog's current sliding window (0 until it has
  /// observations) — the live health signal fleet reports surface.
  double window_miss_rate() const { return watchdog_.window_miss_rate(); }

  /// Fleet capacity-loss signal (a sibling replica went Down and this one
  /// inherits a slice of its load): proactively fall back one Pareto step
  /// — degraded accuracy now beats the mass deadline misses the extra load
  /// would cause before the miss-rate window could react. Recorded as a
  /// ServeSwitch; a no-op when the watchdog is disabled or already at the
  /// fastest option. Safe from any thread.
  void note_capacity_loss();

  /// Snapshot of the accounting counters (by value: a reference into
  /// mutex-guarded state would dangle past the lock).
  ServeStats stats() const {
    util::MutexLock lock(mu_);
    return stats_;
  }
  const ServeConfig& config() const { return config_; }

 private:
  std::vector<ServeOption> options_;  // immutable after construction
  RequestQueue& queue_;
  ServeConfig config_;                // immutable after construction
  BatchFormer former_;                // stateless policy (const choose)
  app::MissRateWatchdog watchdog_;    // internally synchronized
  /// Guards the accounting state below. Rank kServer: taken before the
  /// watchdog's own mutex (observe under accounting) and never while the
  /// queue lock is held.
  mutable util::RankedMutex mu_{util::rank::kServer, "serve/server"};
  /// Seed for timing-only escalation wishes, drawn per request *id* (not
  /// from rng_): a request's wish is identical however batches form, and
  /// the jitter stream stays aligned with cascade-free configurations.
  std::uint64_t cascade_seed_;
  util::Rng rng_ NETCUT_GUARDED_BY(mu_);
  hw::FaultStream fault_stream_ NETCUT_GUARDED_BY(mu_);
  // EWMA of observed / nominal service time.
  double slowdown_ NETCUT_GUARDED_BY(mu_) = 1.0;
  std::int64_t batch_counter_ NETCUT_GUARDED_BY(mu_) = 0;
  ServeStats stats_ NETCUT_GUARDED_BY(mu_);
};

}  // namespace netcut::serve
