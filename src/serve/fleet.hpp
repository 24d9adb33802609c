// serve::Fleet — N BatchServer replicas behind a sharded queue, with
// admission control and per-tenant SLO accounting. The scale-out of the
// single-server serving layer: one replica is the PR 5 server unchanged;
// the fleet adds the pieces one server cannot provide.
//
//  * Replicas. Each worker wraps its own BatchServer (its own TRN Pareto
//    ladder, MissRateWatchdog, fault stream, jitter stream) over its own
//    latency curves — replicas may model heterogeneous devices (a fast
//    int8 replica next to slower ones), which is why admission reasons
//    per-replica instead of assuming a uniform fleet.
//  * Sharded queue + work stealing (serve/shard.hpp). Batch formation
//    contends only within a shard; a dry worker steals the most urgent
//    work from a seeded victim, so utilization survives skewed routing.
//  * Admission control. A request is shed at submit time — an explicit
//    Rejected completion, never a silent miss — when even the fastest TRN
//    on the least-loaded replica cannot meet its deadline, or when, under
//    backlog pressure, the submitting tenant is already consuming more
//    than its SLO class's weighted share of the backlog (so a bursty
//    tenant sheds its own overflow instead of starving everyone else).
//  * Per-tenant accounting. Submitted/shed/served/missed counters per
//    tenant, keyed by the tenant id and SLO class carried on every
//    Request and Completion.
//  * Replica failover (serve/health.hpp). Heartbeat deadlines driven off
//    the same step(now) clock detect a crashed or wedged replica; on Down
//    its shard is drained atomically and every orphan is re-queued in EDF
//    order onto the surviving shards, re-admission-checked against the
//    shrunk capacity (infeasible orphans become explicit Rejected
//    completions, never silent misses). Survivors' watchdogs get a
//    capacity-loss nudge — the fleet degrades accuracy, not deadlines.
//    Recovered replicas re-enter steal-only and earn routing + admission
//    back through a clean-batch warm-up ramp.
//
// Like everything in serve::, the fleet is clock-agnostic and
// deterministic: callers pass `now_ms`, every random choice draws from
// seeded streams, and the same (config, seed) reproduces the same
// completions bit-for-bit at any NETCUT_THREADS setting.
//
// Concurrency contract. submit(), step(), stats(), tenants(),
// next_free_after() and backlog() are safe to call from any thread.
// Admission/accounting state lives under mu_ (rank kFleet, below every
// other lock in the system); a stepper claims a worker under mu_ via its
// serving_ flag, then runs the replica's BatchServer::step with NO fleet
// lock held (the batch forward reaches the thread pool's completion wait,
// which must never happen under a serve lock), and re-acquires mu_ only
// for completion accounting. The admission decision is made against a
// backlog snapshot and the push lands after the lock is released — the
// conservation invariant (submitted == shed + served + in flight) holds
// at every interleaving because inflight is counted at admit time, and
// the model checker (tests/test_sched.cpp) drives submit against
// concurrent shedding and stepping to prove it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/health.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "util/ranked_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace netcut::serve {

/// One service-level objective class. Tenants reference a class by index
/// (Request::slo); the class carries the admission weight and the
/// reporting budget its tenants are held to.
struct SloClass {
  std::string name = "standard";
  /// Relative deadline the load generator attaches to this class's
  /// requests (absolute deadline = arrival + slack).
  double deadline_slack_ms = 10.0;
  /// Reporting bar: admitted requests of this class are expected to see
  /// p99 response within this budget (asserted by tests/bench, not
  /// enforced at runtime).
  double p99_budget_ms = 10.0;
  /// Weighted admission share. Under backlog pressure a tenant may hold
  /// at most weight / (sum of active tenants' weights) of the backlog.
  double weight = 1.0;
};

/// Spec for one worker replica.
struct FleetWorker {
  std::string name;                   // e.g. "replica0/xavier"
  std::vector<ServeOption> options;   // preferred first, fastest last
  ServeConfig serve;                  // per-replica seed/watchdog/faults
};

struct FleetConfig {
  std::vector<SloClass> classes = {SloClass{}};
  std::uint64_t seed = 9090;  // steal-victim streams (per-worker derived)
  /// Fraction of a request's remaining slack kept as safety margin by the
  /// feasibility bound (admit only if best-case eta fits in (1 - headroom)
  /// of the slack). Without it the saturated steady state parks the
  /// backlog exactly on the feasibility boundary, where admitted requests
  /// finish at deadline +- jitter and half of them miss by a hair. In
  /// [0, 1).
  double admission_headroom = 0.10;
  /// Weighted tenant fairness engages when the total backlog reaches this
  /// many requests; below it any feasible request is admitted.
  std::size_t pressure_backlog = 64;
  /// Replica lifecycle knobs (heartbeat deadlines, probation, warm-up).
  HealthConfig health;
  /// Worker-scoped fault schedule (crash=/hang=/flaky= clauses); nullptr
  /// falls back to FaultModel::global() — the NETCUT_FAULTS environment
  /// schedule — like ServeConfig::faults.
  const hw::FaultModel* faults = nullptr;
};

/// Per-tenant counters (explicit outcomes only: submitted = shed + served
/// + still in flight; a shed request is never also a miss).
struct TenantCounters {
  std::uint32_t slo = 0;
  std::int64_t submitted = 0;
  std::int64_t shed = 0;       // rejected at admission
  std::int64_t served = 0;
  std::int64_t missed = 0;     // served but past deadline
};

struct FleetStats {
  std::int64_t submitted = 0;
  std::int64_t shed = 0;
  std::int64_t served = 0;
  std::int64_t missed = 0;
  std::int64_t steals = 0;  // successful shard-to-shard migrations
  // Failover accounting. drain_shed is a subset of shed: orphans the
  // shrunk fleet could no longer serve in budget (explicit rejections,
  // never silent misses), so submitted == shed + served + in flight holds
  // through replica death too.
  std::int64_t failovers = 0;  // Down declarations that triggered a drain
  std::int64_t requeued = 0;   // orphans re-queued onto surviving shards
  std::int64_t drain_shed = 0;  // orphans shed at re-admission
};

class Fleet {
 public:
  Fleet(std::vector<FleetWorker> workers, FleetConfig config);

  std::size_t workers() const { return servers_.size(); }
  const std::string& worker_name(std::size_t w) const { return names_[w]; }
  const BatchServer& worker(std::size_t w) const { return *servers_[w]; }
  const FleetConfig& config() const { return config_; }

  /// Lifecycle state of worker `w` (see serve/health.hpp). Safe from any
  /// thread; snapshots by value.
  ReplicaState worker_state(std::size_t w) const;
  ReplicaHealth worker_health(std::size_t w) const;

  /// Shard a request from `tenant` currently routes to (rendezvous hash
  /// over the Up replicas). Exposed for tests/demos that need to aim load
  /// at a particular replica.
  std::size_t route(std::uint32_t tenant) const { return queue_.route(tenant); }

  /// Admission control at time `now_ms`: either the request is enqueued on
  /// its shard (nullopt) or it is shed and the explicit Rejected
  /// completion is returned to the caller.
  std::optional<Completion> submit(const Request& r, double now_ms);

  /// Serve one batch: the lowest-index worker that is free at `now_ms`
  /// and has work (stealing if its own shard is dry) runs one
  /// BatchServer::step. Empty when no worker can start a batch at `now_ms`
  /// (all busy, or no work). Callers at the same `now_ms` loop until empty
  /// to let every free worker start.
  std::vector<Completion> step(double now_ms);

  /// Earliest time strictly after `now_ms` at which a busy worker frees
  /// up; +infinity when none is busy. The event-loop companion to step().
  double next_free_after(double now_ms) const;

  /// Total backlog across shards (admitted, not yet taken into a batch).
  std::size_t backlog() const { return queue_.total_size(); }

  /// No more submissions; shards keep serving (and stealing) until drained.
  void close();

  /// Snapshot of the fleet-wide counters (by value: guarded state must not
  /// leak out as a reference). steals is recomputed from the shard
  /// counters on every call.
  FleetStats stats() const;
  /// Deterministically ordered (by tenant id) snapshot of the per-tenant
  /// counters.
  std::map<std::uint32_t, TenantCounters> tenants() const {
    util::MutexLock lock(mu_);
    return tenants_;
  }

 private:
  bool feasible(const Request& r, double now_ms) const NETCUT_REQUIRES(mu_);
  bool over_fair_share(const Request& r) const NETCUT_REQUIRES(mu_);
  /// Health bookkeeping at `now_ms`: applies heartbeat-deadline and
  /// probation transitions, then drains any Down shard with pending work
  /// (a freshly-declared death or a stray that raced a push past the
  /// routing flip). Returns the explicit rejections produced by drains.
  std::vector<Completion> failover_pass(double now_ms);
  /// Atomically empty worker `w`'s shard and re-queue every orphan the
  /// shrunk fleet can still serve in budget (EDF order preserved); the
  /// rest are shed with explicit Rejected completions.
  std::vector<Completion> drain_worker(std::size_t w, double now_ms);
  /// Mirror worker `w`'s lifecycle state into the routing set and, on a
  /// fresh Down declaration, count the failover and nudge the survivors'
  /// watchdogs. Returns the survivors to notify (outside the lock).
  std::vector<std::size_t> on_went_down(std::size_t w) NETCUT_REQUIRES(mu_);

  FleetConfig config_;           // immutable after construction
  ShardedQueue queue_;           // internally synchronized
  std::vector<std::string> names_;  // immutable after construction
  std::vector<std::unique_ptr<BatchServer>> servers_;  // elements internally synchronized
  std::vector<std::size_t> max_batch_;  // immutable after construction
  /// Guards admission + accounting. Rank kFleet: the outermost lock — the
  /// feasibility bound reads shard sizes (rank kQueue) underneath it; it
  /// is never held across a replica's step.
  mutable util::RankedMutex mu_{util::rank::kFleet, "serve/fleet"};
  std::vector<double> busy_until_ms_ NETCUT_GUARDED_BY(mu_);
  /// Per-worker claim flags: true while some stepper runs worker w's
  /// replica outside the lock, so concurrent steppers skip it instead of
  /// double-serving one replica (the jitter/fault streams are sequential).
  std::vector<char> serving_ NETCUT_GUARDED_BY(mu_);
  std::map<std::uint32_t, TenantCounters> tenants_ NETCUT_GUARDED_BY(mu_);
  // admitted - completed, per tenant
  std::map<std::uint32_t, std::int64_t> inflight_ NETCUT_GUARDED_BY(mu_);
  std::int64_t inflight_total_ NETCUT_GUARDED_BY(mu_) = 0;
  FleetStats stats_ NETCUT_GUARDED_BY(mu_);
  /// Replica lifecycle + fault injection (externally synchronized types,
  /// owned under the fleet lock like the rest of the admission state).
  HealthMonitor monitor_ NETCUT_GUARDED_BY(mu_);
  WorkerFaultInjector injector_ NETCUT_GUARDED_BY(mu_);
  /// Dispatch attempts per worker — the `S` axis of crash=W@S / hang=W@S~D.
  std::vector<std::int64_t> attempts_ NETCUT_GUARDED_BY(mu_);
};

}  // namespace netcut::serve
