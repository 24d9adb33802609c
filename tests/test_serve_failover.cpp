// Fleet failover (labels: serve + sched): the replica lifecycle state
// machine, worker-scoped fault injection (crash=/hang=/flaky=), shard
// drain + re-queue at replica death, and capacity-aware degraded serving.
//
// Contracts pinned here:
//  * the worker-clause grammar round-trips and the injector is a pure
//    function of (config, seed) — failures are bit-reproducible;
//  * conservation (submitted == shed + served + backlog) survives drain
//    racing steal racing push, proven over >= 200 seeded schedules plus a
//    bounded-exhaustive prefix under the deterministic model checker;
//  * heartbeat detection never false-positives under a thermal throttle —
//    a slow replica still completes batches, only a silent one is
//    suspected;
//  * the Recovering warm-up is real hysteresis: across repeated
//    crash/recover cycles a replica re-enters admission only after a full
//    clean-batch ramp, never mid-flap;
//  * same-seed fleet runs with a failover mid-run are digest-identical;
//  * the acceptance scenario — 1 of 4 replicas crashing at 80% load —
//    produces zero silent outcomes: every request is served (miss bit
//    visible) or explicitly shed, and the orphaned shard's work is
//    re-queued and served by the survivors.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/device.hpp"
#include "hw/faults.hpp"
#include "serve/fleet.hpp"
#include "serve/health.hpp"
#include "serve/shard.hpp"
#include "serve_sim.hpp"
#include "sched_check.hpp"
#include "util/rng.hpp"
#include "util/schedule.hpp"
#include "zoo/zoo.hpp"

namespace netcut {
namespace {

using serve_sim::FleetLoadConfig;
using serve_sim::FleetReport;
using testing::ExploreConfig;
using testing::ExploreStats;
using testing::Protocol;
using testing::explore;

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

// ---------------------------------------------------------------------------
// Grammar + injector determinism.
// ---------------------------------------------------------------------------

TEST(FaultSpec, WorkerClausesParseFormatRoundTrip) {
  const hw::FaultConfig c = hw::parse_fault_spec("crash=2@120,hang=1@40~25,flaky=3x0.2,seed=99");
  EXPECT_TRUE(c.enabled);
  EXPECT_TRUE(c.targets_workers());
  EXPECT_EQ(c.crash_worker, 2);
  EXPECT_EQ(c.crash_attempt, 120);
  EXPECT_EQ(c.hang_worker, 1);
  EXPECT_EQ(c.hang_attempt, 40);
  EXPECT_DOUBLE_EQ(c.hang_ms, 25.0);
  EXPECT_EQ(c.flaky_worker, 3);
  EXPECT_DOUBLE_EQ(c.flaky_prob, 0.2);
  EXPECT_EQ(c.seed, 99u);
  // Round-trip exact, including mixed worker + measurement clauses.
  EXPECT_EQ(hw::parse_fault_spec(hw::format_fault_spec(c)), c);
  const hw::FaultConfig mixed =
      hw::parse_fault_spec("throttle=2.5@10~50,crash=0@7,drop=0.01,seed=3");
  EXPECT_EQ(hw::parse_fault_spec(hw::format_fault_spec(mixed)), mixed);
}

TEST(FaultSpec, MalformedWorkerClausesThrow) {
  const char* bad[] = {
      "crash=2",        // missing attempt
      "crash=x@5",      // non-numeric worker
      "crash=-1@5",     // negative worker
      "crash=1@-2",     // negative attempt
      "hang=1@2",       // missing duration
      "hang=1@2~0",     // non-positive duration
      "hang=1@2~-3",    // negative duration
      "flaky=2",        // missing probability
      "flaky=1x1.5",    // probability > 1
      "flaky=1x-0.1",   // negative probability
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)hw::parse_fault_spec(spec), std::invalid_argument) << spec;
  }
}

TEST(FaultSpec, WorkerClausesDoNotPerturbMeasurementStreams) {
  // Adding a crash/hang/flaky clause to a schedule must leave every
  // measurement stream's draw sequence bit-identical: the worker clauses
  // are consumed by the fleet's health layer only.
  const hw::FaultModel base(hw::parse_fault_spec("spike=0.05x4,drop=0.01,seed=42"));
  const hw::FaultModel with_workers(
      hw::parse_fault_spec("spike=0.05x4,drop=0.01,crash=1@10,flaky=0x0.3,seed=42"));
  hw::FaultStream a = base.stream("measure/7");
  hw::FaultStream b = with_workers.stream("measure/7");
  for (int run = 0; run < 200; ++run) {
    const hw::RunFault fa = a.next(run);
    const hw::RunFault fb = b.next(run);
    EXPECT_EQ(fa.multiplier, fb.multiplier);
    EXPECT_EQ(fa.failed, fb.failed);
  }
}

TEST(WorkerFaultInjector, SameConfigSameSeedIsBitIdentical) {
  const hw::FaultConfig cfg = hw::parse_fault_spec("crash=0@5,hang=1@3~10,flaky=2x0.3,seed=7");
  serve::WorkerFaultInjector a(cfg, 3);
  serve::WorkerFaultInjector b(cfg, 3);
  ASSERT_TRUE(a.active());
  for (std::int64_t k = 0; k < 64; ++k) {
    const double now = static_cast<double>(k);
    for (std::size_t w = 0; w < 3; ++w) {
      EXPECT_EQ(static_cast<int>(a.on_attempt(w, k, now)),
                static_cast<int>(b.on_attempt(w, k, now)))
          << "worker " << w << " attempt " << k;
      EXPECT_EQ(a.responsive(w, now), b.responsive(w, now));
    }
  }
  // The crash is permanent, the hang is not.
  EXPECT_FALSE(a.responsive(0, 1e9));
  EXPECT_TRUE(a.responsive(1, 1e9));
}

// ---------------------------------------------------------------------------
// HealthMonitor: warm-up hysteresis across repeated crash/recover cycles.
// ---------------------------------------------------------------------------

TEST(HealthMonitor, WarmupHysteresisHoldsAcrossRepeatedFlaps) {
  serve::HealthConfig hc;
  hc.suspect_after_ms = 1.0;
  hc.down_after_ms = 3.0;
  hc.probation_ms = 2.0;
  hc.warmup_batches = 2;
  serve::HealthMonitor m(2, hc);
  double t = 0.0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_EQ(m.state(0), serve::ReplicaState::kUp) << "cycle " << cycle;
    // Silence opens; thresholds are pure functions of the clock.
    m.note_attempt_blocked(0, t);
    EXPECT_FALSE(m.advance(0, t + 0.5, /*responsive=*/false));
    EXPECT_EQ(m.state(0), serve::ReplicaState::kUp);
    EXPECT_FALSE(m.advance(0, t + 1.0, false));
    EXPECT_EQ(m.state(0), serve::ReplicaState::kDegraded);
    EXPECT_FALSE(m.routable(0));   // routed away before it is declared dead
    EXPECT_FALSE(m.in_admission(0));
    EXPECT_TRUE(m.serving_allowed(0));
    // Down exactly at the heartbeat deadline; the declaring call returns
    // true exactly once (the caller drains on it).
    EXPECT_TRUE(m.advance(0, t + 3.0, false));
    EXPECT_EQ(m.state(0), serve::ReplicaState::kDown);
    EXPECT_FALSE(m.serving_allowed(0));
    EXPECT_FALSE(m.advance(0, t + 3.5, false));  // still down, no re-drain
    EXPECT_DOUBLE_EQ(m.replica(0).detected_ms, t + 3.0);

    // Responsive again: probation, then steal-only Recovering.
    EXPECT_FALSE(m.advance(0, t + 4.0, true));
    EXPECT_EQ(m.state(0), serve::ReplicaState::kDown);
    EXPECT_FALSE(m.advance(0, t + 6.0, true));
    EXPECT_EQ(m.state(0), serve::ReplicaState::kRecovering);
    EXPECT_TRUE(m.steal_only(0));
    EXPECT_TRUE(m.serving_allowed(0));
    // The anti-flap core: a Recovering replica is NOT routable and NOT in
    // admission until the whole warm-up ramp completes — one clean batch
    // is not enough.
    EXPECT_FALSE(m.routable(0));
    EXPECT_FALSE(m.in_admission(0));
    EXPECT_EQ(m.up_count(), 1u);  // only the healthy sibling vouches
    m.note_progress(0, t + 6.5);
    EXPECT_EQ(m.state(0), serve::ReplicaState::kRecovering);
    EXPECT_FALSE(m.in_admission(0));
    m.note_progress(0, t + 7.0);
    EXPECT_EQ(m.state(0), serve::ReplicaState::kUp);
    EXPECT_TRUE(m.in_admission(0));
    t += 10.0;
  }
  // Exactly 4 transitions per cycle (Up->Degraded->Down->Recovering->Up):
  // no hidden flapping anywhere in three full cycles.
  EXPECT_EQ(m.replica(0).transitions, 12);
  // The untouched sibling never moved.
  EXPECT_EQ(m.replica(1).transitions, 0);
}

TEST(HealthMonitor, ErrorScoreIsLeakyAndEscalates) {
  serve::HealthConfig hc;  // defaults: degraded at 2, down at 5
  serve::HealthMonitor m(1, hc);
  m.note_error(0, 1.0);
  EXPECT_EQ(m.state(0), serve::ReplicaState::kUp);
  m.note_progress(0, 2.0);  // clean batch decays the score
  m.note_error(0, 3.0);
  EXPECT_EQ(m.state(0), serve::ReplicaState::kUp);  // 1 - 1 + 1 = 1 < 2
  m.note_error(0, 4.0);
  EXPECT_EQ(m.state(0), serve::ReplicaState::kDegraded);
  for (int i = 0; i < 3; ++i) m.note_error(0, 5.0 + i);
  EXPECT_EQ(m.state(0), serve::ReplicaState::kDown);
}

// ---------------------------------------------------------------------------
// Model checker: drain vs steal vs push conservation.
// ---------------------------------------------------------------------------

serve::FleetConfig failover_sched_config() {
  serve::FleetConfig fc;
  fc.seed = 1717;
  fc.health.suspect_after_ms = 0.5;
  fc.health.down_after_ms = 1.5;
  fc.health.probation_ms = 1.0;
  fc.health.warmup_batches = 1;
  return fc;
}

std::vector<serve::FleetWorker> failover_sched_workers(std::size_t n) {
  std::vector<serve::FleetWorker> workers;
  for (std::size_t w = 0; w < n; ++w) {
    serve::FleetWorker fw;
    fw.name = "failover-w" + std::to_string(w);
    serve::ServeOption opt;
    opt.name = "timing-only";
    opt.latency_ms = [](int b) { return 1.0 + 0.1 * b; };
    fw.options.push_back(opt);
    fw.serve.max_batch = 4;
    fw.serve.seed = 6160 + static_cast<std::uint64_t>(w);
    fw.serve.jitter_sigma = 0.0;
    fw.serve.faults = &hw::FaultModel::disabled();
    workers.push_back(fw);
  }
  return workers;
}

// Worker 0 crashes at its first dispatch attempt; two submitters (one
// tenant homed on the dying shard, one elsewhere) race two steppers whose
// clocks cross the heartbeat deadline — so drain/re-queue interleaves with
// admission pushes and steal migrations at every yield point
// (fleet.drain.holding-orphans, shard.balance.holding-stolen,
// fleet.submit.admit-to-push, ...). Conservation and explicit accounting
// must hold at quiescence for every schedule.
Protocol drain_steal_push_protocol() {
  static const hw::FaultModel crash0(hw::parse_fault_spec("crash=0@0,seed=21"));
  struct State {
    State() {
      serve::FleetConfig fc = failover_sched_config();
      fc.faults = &crash0;
      fleet = std::make_unique<serve::Fleet>(failover_sched_workers(2), fc);
      // Deterministically find a tenant homed on the doomed shard 0 and one
      // homed on shard 1 (rendezvous routing is a pure function of seed).
      doomed_tenant = other_tenant = 0;
      for (std::uint32_t t = 1; t <= 32 && (doomed_tenant == 0 || other_tenant == 0); ++t) {
        if (fleet->route(t) == 0 && doomed_tenant == 0) doomed_tenant = t;
        if (fleet->route(t) == 1 && other_tenant == 0) other_tenant = t;
      }
    }
    std::unique_ptr<serve::Fleet> fleet;
    std::uint32_t doomed_tenant = 0;
    std::uint32_t other_tenant = 0;
    std::atomic<std::int64_t> rejected{0};
    std::atomic<std::int64_t> step_shed{0};
  };
  auto st = std::make_shared<State>();
  const auto submitter = [st](std::uint32_t tenant, std::uint64_t base) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      serve::Request r;
      r.id = base + i;
      r.arrival_ms = 0.0;
      // One hopeless request per submitter: shed at admission no matter
      // what the schedule does.
      r.deadline_ms = (i == 2) ? 0.2 : 1000.0;
      r.tenant = tenant;
      if (st->fleet->submit(r, 0.0).has_value()) st->rejected.fetch_add(1);
    }
  };
  const auto stepper = [st] {
    double now = 0.0;
    for (int i = 0; i < 8; ++i) {
      // Drain rejections come back from step(); count them so the check
      // can assert shed = admission rejections + drain sheds exactly.
      for (const serve::Completion& c : st->fleet->step(now))
        if (c.rejected) st->step_shed.fetch_add(1);
      now += 0.6;  // crosses suspect (0.5) and down (1.5) deadlines
    }
  };
  Protocol p;
  p.bodies.push_back([submitter, st] { submitter(st->doomed_tenant, 100); });
  p.bodies.push_back([submitter, st] { submitter(st->other_tenant, 200); });
  p.bodies.push_back(stepper);
  p.bodies.push_back(stepper);
  p.check = [st] {
    const serve::FleetStats fs = st->fleet->stats();
    require(fs.submitted == 6, "submitted count wrong");
    require(fs.shed == st->rejected.load() + st->step_shed.load(),
            "shed != admission rejections + drain rejections (silent loss)");
    require(fs.drain_shed <= fs.shed, "drain_shed must be a subset of shed");
    require(fs.submitted == fs.shed + fs.served +
                                static_cast<std::int64_t>(st->fleet->backlog()),
            "fleet conservation violated: submitted != shed + served + backlog");
    require(fs.failovers <= 1, "one crash must declare at most one failover");
    std::int64_t t_submitted = 0, t_shed = 0, t_served = 0;
    for (const auto& [tenant, tc] : st->fleet->tenants()) {
      t_submitted += tc.submitted;
      t_shed += tc.shed;
      t_served += tc.served;
    }
    require(t_submitted == fs.submitted && t_shed == fs.shed && t_served == fs.served,
            "per-tenant counters out of sync with fleet totals");
  };
  return p;
}

TEST(SchedFailover, DrainVsStealVsPushConserves) {
  ExploreConfig cfg;
  cfg.seed = 81818;
  cfg.random_schedules = 200;
  cfg.exhaustive_depth = 2;
  const ExploreStats stats = explore(drain_steal_push_protocol, cfg);
  EXPECT_GE(stats.schedules, 200u);
}

// ---------------------------------------------------------------------------
// Simulation-scale failover behavior.
// ---------------------------------------------------------------------------

std::function<double(int)> trunk_curve(double scale = 1.0) {
  const nn::Graph graph = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  return [curve = hw::DeviceModel().batch_curve(graph, hw::Precision::kInt8, true, 8),
          scale](int b) { return scale * curve(b); };
}

serve::Fleet sim_fleet(std::size_t n, serve::FleetConfig cfg, double deadline_ms,
                       const hw::FaultModel* fleet_faults,
                       const hw::FaultModel* server_faults = nullptr) {
  std::vector<serve::FleetWorker> workers;
  for (std::size_t w = 0; w < n; ++w) {
    serve::FleetWorker fw;
    fw.name = "w" + std::to_string(w);
    fw.options = {{"preferred", nullptr, trunk_curve(), {}},
                  {"fallback", nullptr, trunk_curve(0.25), {}}};
    fw.serve.max_batch = 8;
    fw.serve.nominal_deadline_ms = deadline_ms;
    fw.serve.seed = util::derive_seed(7070, "failover/worker/" + std::to_string(w));
    fw.serve.faults =
        server_faults != nullptr ? server_faults : &hw::FaultModel::disabled();
    workers.push_back(std::move(fw));
  }
  cfg.faults = fleet_faults != nullptr ? fleet_faults : &hw::FaultModel::disabled();
  return serve::Fleet(std::move(workers), std::move(cfg));
}

TEST(FleetFailover, HangIsDetectedButThrottleNeverFalsePositives) {
  // Worker 1 wedges for 60ms; at the same time the schedule throttles
  // every replica's service time 3x (decaying thermal event). Detection
  // must fire for the hung replica — and ONLY for it: a slow replica still
  // completes batches, still heartbeats, and must never be suspected.
  const auto curve = trunk_curve();
  const hw::FaultModel model(
      hw::parse_fault_spec("hang=1@20~60,throttle=3.0@0~200,seed=5"));
  serve::FleetConfig fc;
  fc.classes = {{"standard", 12.0 * curve(1), 12.0 * curve(1), 1.0}};
  FleetLoadConfig load;
  load.requests = 20000;
  load.mean_interarrival_ms = curve(8) / 8.0 / 2.0;  // ~2x one worker
  for (std::uint32_t tenant = 1; tenant <= 8; ++tenant)
    load.tenants.push_back({tenant, 0, 1.0});

  serve::Fleet fleet =
      sim_fleet(4, fc, fc.classes[0].deadline_slack_ms, &model, &model);
  const FleetReport rep = serve_sim::run_fleet_open_loop(
      fleet, serve_sim::generate_fleet_arrivals(load, fc.classes, {}));

  // The hung replica was declared dead (and its shard drained)...
  EXPECT_EQ(rep.failovers, 1);
  const serve::ReplicaHealth hung = fleet.worker_health(1);
  EXPECT_GE(hung.transitions, 2);         // Up -> Degraded -> Down at least
  EXPECT_GT(hung.detected_ms, 0.0);
  // ... within a detection window bounded by the configured deadlines (the
  // hang lasts 60ms; suspicion + declaration take suspect+down = 28ms of
  // silence by default, found at the next health-event clock edge).
  EXPECT_LT(hung.detected_ms, rep.makespan_ms);
  // No false positives: every throttled-but-alive replica stayed Up the
  // whole run.
  for (std::size_t w : {0u, 2u, 3u}) {
    EXPECT_EQ(fleet.worker_health(w).transitions, 0)
        << "throttled worker " << w << " was wrongly suspected";
    EXPECT_EQ(fleet.worker_state(w), serve::ReplicaState::kUp);
  }
  // Everything remains explicitly accounted through hang + recovery.
  EXPECT_EQ(rep.shed + rep.served, rep.submitted);
}

TEST(FleetFailover, SameSeedRunsWithFailoverAreDigestIdentical) {
  // Bit-identity is part of the failover contract: a crash mid-run must
  // not introduce wall-clock or iteration-order dependence. Two same-seed
  // runs produce identical completion streams (digest-checked); two
  // different seeds produce different ones.
  const auto curve = trunk_curve();
  const hw::FaultModel crash(hw::parse_fault_spec("crash=2@150,seed=31"));
  std::vector<std::uint64_t> digests;
  for (const std::uint64_t seed : {424242ull, 777000ull}) {
    serve::FleetConfig fc;
    fc.classes = {{"standard", 8.0 * curve(1), 8.0 * curve(1), 1.0}};
    FleetLoadConfig load;
    load.requests = 20000;
    load.mean_interarrival_ms = curve(8) / 8.0 / 2.5;
    load.seed = seed;
    for (std::uint32_t tenant = 1; tenant <= 6; ++tenant)
      load.tenants.push_back({tenant, 0, 1.0});
    const auto arrivals = serve_sim::generate_fleet_arrivals(load, fc.classes, {});
    auto run = [&] {
      serve::Fleet fleet = sim_fleet(4, fc, fc.classes[0].deadline_slack_ms, &crash);
      return serve_sim::run_fleet_open_loop(fleet, arrivals);
    };
    const FleetReport a = run();
    const FleetReport b = run();
    EXPECT_GE(a.failovers, 1) << "seed " << seed;
    EXPECT_TRUE(serve_sim::fleet_reports_identical(a, b)) << "seed " << seed;
    digests.push_back(a.digest);
  }
  EXPECT_NE(digests[0], digests[1]);  // the seed actually flows through
}

TEST(FleetFailover, CrashOneOfFourAtEightyPercentLoadHasNoSilentOutcomes) {
  // The acceptance scenario: 4 replicas at ~80% fleet load, replica 1
  // fail-stops mid-run. Every submitted request must end as exactly one
  // explicit outcome — served (deadline verdict visible on the completion)
  // or shed (admission or drain rejection) — with the dead shard's orphans
  // re-queued onto the survivors. No request may vanish, and the admitted
  // miss rate must stay controlled because survivors' watchdogs take the
  // capacity-loss fallback instead of letting deadlines blow up.
  const auto curve = trunk_curve();
  const hw::FaultModel crash(hw::parse_fault_spec("crash=1@400,seed=13"));
  serve::FleetConfig fc;
  fc.classes = {{"standard", 8.0 * curve(1), 8.0 * curve(1), 1.0}};
  // Heartbeat deadlines on the service timescale (a few batch times), like
  // a real deployment: with the defaults (8ms/20ms ~ 100 batch times here)
  // the silence window is so long the stealers pick the dying shard clean
  // before the drain ever sees an orphan.
  fc.health.suspect_after_ms = 2.0 * curve(1);
  fc.health.down_after_ms = 5.0 * curve(1);
  serve::Fleet fleet = sim_fleet(4, fc, fc.classes[0].deadline_slack_ms, &crash);

  FleetLoadConfig load;
  load.requests = 30000;
  load.mean_interarrival_ms = curve(8) / 8.0 / 3.2;  // 80% of 4 workers
  for (std::uint32_t tenant = 1; tenant <= 8; ++tenant) {
    // Skew extra traffic onto the doomed replica's shard (the rendezvous
    // route is a pure function of the seed, so the probe is deterministic):
    // its shard must carry standing backlog at drain time so the test
    // actually exercises the orphan re-queue path, not an empty drain.
    const double weight = fleet.route(tenant) == 1 ? 3.0 : 1.0;
    load.tenants.push_back({tenant, 0, weight});
  }
  const auto arrivals = serve_sim::generate_fleet_arrivals(load, fc.classes, {});
  std::vector<serve::Completion> completions;
  const FleetReport rep = serve_sim::run_fleet_open_loop(fleet, arrivals, &completions);

  EXPECT_EQ(rep.failovers, 1);
  EXPECT_EQ(fleet.worker_state(1), serve::ReplicaState::kDown);
  EXPECT_GT(rep.requeued, 0);  // the orphans went to the survivors
  // Zero silent outcomes: every id appears exactly once, as served or shed.
  ASSERT_EQ(completions.size(), arrivals.size());
  const double detected = fleet.worker_health(1).detected_ms;
  EXPECT_GT(detected, 0.0);
  std::set<std::uint64_t> seen;
  for (const serve::Completion& c : completions) {
    EXPECT_TRUE(seen.insert(c.id).second) << "request " << c.id << " completed twice";
    // The dead replica's pre-crash service is fine; nothing it "served" may
    // finish past the point it was declared dead.
    if (!c.rejected && c.worker == 1) {
      EXPECT_LE(c.finish_ms, detected) << "request " << c.id << " served by a dead replica";
    }
  }
  EXPECT_EQ(rep.shed + rep.served, rep.submitted);
  EXPECT_EQ(rep.served + rep.shed, static_cast<std::int64_t>(arrivals.size()));
  // The dead replica's load was absorbed, not missed: admitted work keeps
  // a controlled miss rate through the failover.
  EXPECT_LT(rep.miss_rate, 0.02) << "post-failover misses leaked";
  // At least one survivor took the capacity-loss fallback at the drain.
  std::int64_t switches = 0;
  for (std::size_t w : {0u, 2u, 3u}) {
    switches += static_cast<std::int64_t>(fleet.worker(w).stats().switches.size());
  }
  EXPECT_GE(switches, 3);  // every survivor got the nudge
}

}  // namespace
}  // namespace netcut
