// Replica health for the fleet: a per-worker lifecycle state machine plus
// the deterministic worker-fault injector that exercises it.
//
//   Up ──silent ≥ suspect_after──▶ Degraded ──silent ≥ down_after──▶ Down
//   ▲                                 │  ▲                            │
//   │◀──── warm-up (clean batches) ───┘  └─── errors ≥ kDownErrors ───┘
//   │                                                                 │
//   └──── warm-up (steal-only) ──── Recovering ◀── responsive + ──────┘
//                                                  probation
//
//  * Up: serving, routable, counted in the admission capacity.
//  * Degraded: suspected (silent past the heartbeat deadline, or an error
//    score over threshold). Still serves its own shard — but new work is
//    routed away and admission stops vouching for it, so a replica that is
//    about to die stops accumulating obligations first.
//  * Down: declared dead. The fleet drains its shard and re-queues the
//    orphans against the shrunk capacity (Fleet::step); nothing routes to
//    it and it serves nothing.
//  * Recovering: responsive again after probation. Serves steal-only — it
//    helps drain the survivors' backlog but takes no routed work and adds
//    nothing to the admission capacity until a full warm-up of clean
//    batches. The warm-up is the anti-flap hysteresis: a worker that keeps
//    hanging re-enters admission at most once per (probation + warm-up),
//    so the gate cannot oscillate with the fault.
//
// Detection is heartbeat-based and clock-agnostic: every signal is an
// explicit call from Fleet::step(now_ms). A *dispatched* batch that
// completes is a heartbeat (note_progress); a dispatch attempt the replica
// silently ignores opens a silence window (note_attempt_blocked); a
// reported batch error bumps a leaky error score (note_error). Silence is
// judged against time thresholds, never against service time — a replica
// slowed 5x by a thermal throttle still completes batches, still
// heartbeats, and is never suspected (no false positives under throttle=).
//
// Both classes here are *externally synchronized*: the Fleet owns them
// under its admission lock (rank kFleet). They take no locks, call no
// clocks and draw only from seeded streams, so fleet runs stay
// bit-reproducible with failures injected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "hw/faults.hpp"
#include "util/rng.hpp"

namespace netcut::serve {

enum class ReplicaState { kUp, kDegraded, kDown, kRecovering };

const char* replica_state_name(ReplicaState s);

struct HealthConfig {
  /// Heartbeat deadline: a replica silent this long (while dispatch
  /// attempts are being ignored) is suspected — Up becomes Degraded.
  double suspect_after_ms = 8.0;
  /// Silent this long and it is declared Down: drain + failover.
  double down_after_ms = 20.0;
  /// A Down replica must answer probes this long before Recovering starts.
  double probation_ms = 10.0;
  /// Clean batches a Recovering (or Degraded) replica must serve before it
  /// is Up again — the warm-up ramp that prevents admission flap.
  int warmup_batches = 4;
};

/// Per-replica lifecycle record (snapshot type for reports/demos too).
struct ReplicaHealth {
  ReplicaState state = ReplicaState::kUp;
  /// Last heartbeat (completed batch), -inf before the first.
  double last_progress_ms = -std::numeric_limits<double>::infinity();
  /// Start of the open silence window, NaN-free sentinel +inf when closed.
  double silent_since_ms = std::numeric_limits<double>::infinity();
  int error_score = 0;
  int clean_batches = 0;  // warm-up progress while Degraded/Recovering
  double down_since_ms = 0.0;      // when Down was declared
  double detected_ms = 0.0;        // == down_since_ms (timeline alias)
  /// When the replica was first seen responsive again while Down; +inf
  /// while unresponsive (probation restarts if it goes silent again).
  double responsive_since_ms = std::numeric_limits<double>::infinity();
  std::int64_t transitions = 0;  // state changes (flap telemetry)
};

/// The lifecycle state machine for every replica in one fleet.
class HealthMonitor {
 public:
  HealthMonitor(std::size_t workers, HealthConfig config);

  const HealthConfig& config() const { return config_; }
  std::size_t workers() const { return replicas_.size(); }
  ReplicaState state(std::size_t w) const { return replicas_[w].state; }
  const ReplicaHealth& replica(std::size_t w) const { return replicas_[w]; }

  /// Policy predicates the fleet keys routing/admission/serving off.
  bool serving_allowed(std::size_t w) const {
    return replicas_[w].state != ReplicaState::kDown;
  }
  bool in_admission(std::size_t w) const {
    return replicas_[w].state == ReplicaState::kUp;
  }
  bool routable(std::size_t w) const {
    return replicas_[w].state == ReplicaState::kUp;
  }
  bool steal_only(std::size_t w) const {
    return replicas_[w].state == ReplicaState::kRecovering;
  }
  std::size_t up_count() const;

  /// A dispatched batch completed: heartbeat. Closes any silence window,
  /// decays the error score and advances the warm-up (Degraded/Recovering
  /// go Up after config.warmup_batches clean batches).
  void note_progress(std::size_t w, double now_ms);

  /// A dispatch attempt was silently ignored (crash/hang): opens the
  /// silence window. Threshold crossings are applied by advance(), so
  /// detection is purely a function of the step clock.
  void note_attempt_blocked(std::size_t w, double now_ms);

  /// The replica accepted a dispatch (batch in flight): closes the silence
  /// window without advancing the warm-up — acceptance proves liveness,
  /// only completion proves health.
  void note_dispatch(std::size_t w, double now_ms);

  /// The replica answered the dispatch with an error (flaky): bumps the
  /// leaky error score and resets the warm-up.
  void note_error(std::size_t w, double now_ms);

  /// Time-driven transitions at `now_ms`; `responsive` is whether the
  /// replica currently answers probes (false mid-hang / after a crash).
  /// Applies silence thresholds (Up -> Degraded -> Down) and the Down ->
  /// Recovering probation. Returns true when this call declared the
  /// replica Down (the caller must drain its shard).
  bool advance(std::size_t w, double now_ms, bool responsive);

  /// Earliest time strictly after `now_ms` at which advance() could take a
  /// transition for worker `w` given no new events; +inf when none is
  /// scheduled. The fleet folds this into next_free_after so event-driven
  /// callers never sleep through a heartbeat deadline.
  double next_event_after(std::size_t w, double now_ms) const;

 private:
  void set_state(std::size_t w, ReplicaState s, double now_ms);

  HealthConfig config_;  // immutable after construction
  std::vector<ReplicaHealth> replicas_;
};

/// Interprets the worker-scoped NETCUT_FAULTS clauses (crash=W@S,
/// hang=W@S~D, flaky=WxP) for one fleet. Flaky draws come from per-worker
/// streams derived from the schedule seed, so outcomes are bit-identical
/// run to run and decorrelated across workers. Inert (every attempt
/// serves) when the schedule has no worker clauses.
class WorkerFaultInjector {
 public:
  WorkerFaultInjector() = default;  // inert
  WorkerFaultInjector(const hw::FaultConfig& config, std::size_t workers);

  bool active() const { return active_; }

  /// Outcome of dispatch attempt `k` (0-based, per worker) at `now_ms`.
  enum class Attempt {
    kServe,   // the replica serves the batch normally
    kError,   // the replica answers with a failure (observed error)
    kSilent,  // the replica ignores the dispatch (crashed or hung)
  };
  Attempt on_attempt(std::size_t w, std::int64_t k, double now_ms);

  /// Does the replica answer out-of-band probes at `now_ms`? False after a
  /// crash and mid-hang; flaky replicas always answer.
  bool responsive(std::size_t w, double now_ms) const;

  /// Earliest time strictly after `now_ms` at which an unresponsive
  /// replica answers again (+inf after a crash, hang end mid-hang).
  double next_responsive_ms(std::size_t w, double now_ms) const;

 private:
  bool active_ = false;
  hw::FaultConfig config_;
  std::vector<util::Rng> flaky_rng_;
  std::vector<char> crashed_;
  std::vector<char> hang_fired_;
  std::vector<double> hang_until_ms_;
};

}  // namespace netcut::serve
