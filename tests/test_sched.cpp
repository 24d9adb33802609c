// Model-checker suites for the serve concurrency protocols (label: sched).
//
// Each suite drives a real serve primitive — RequestQueue, ShardedQueue
// stealing, Fleet admission — through hundreds of deterministic schedules
// (tests/sched_check.hpp over util/schedule.hpp) and asserts protocol
// invariants at quiescence. Negative tests seed known bug patterns (lost
// wakeup, lock-order inversion, held-while-blocking) and assert the
// matching analyzer actually catches them, including replaying a recorded
// failing schedule verbatim.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app/watchdog.hpp"
#include "serve/fleet.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/shard.hpp"
#include "sched_check.hpp"
#include "util/ranked_mutex.hpp"
#include "util/schedule.hpp"

namespace {

using netcut::testing::ExploreConfig;
using netcut::testing::ExploreStats;
using netcut::testing::Protocol;
using netcut::testing::explore;
using netcut::testing::replay;
using netcut::testing::run_one_schedule;
namespace sched = netcut::util::sched;
namespace serve = netcut::serve;
namespace util = netcut::util;

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

serve::Request make_request(std::uint64_t id, double deadline_ms) {
  serve::Request r;
  r.id = id;
  r.arrival_ms = 0.0;
  r.deadline_ms = deadline_ms;
  return r;
}

// ---------------------------------------------------------------------------
// RequestQueue: take vs concurrent push/close.
// ---------------------------------------------------------------------------

// Two producers push disjoint id sets; the last producer to finish closes
// the queue; a consumer loops wait_nonempty/take-all until closed+drained.
// Conservation: every pushed id is consumed exactly once, and every take's
// batch comes back in EDF order. A lost wakeup (push/close landing in the
// consumer's wait window) would deadlock — the explorer proves the
// unlock-before-notify protocol never loses one.
Protocol queue_take_push_close_protocol() {
  struct State {
    serve::RequestQueue q;
    std::atomic<int> producers_left{2};
    std::vector<std::uint64_t> got;  // consumer-only until join
  };
  auto st = std::make_shared<State>();
  const auto producer = [st](std::uint64_t base) {
    for (std::uint64_t i = 0; i < 2; ++i)
      st->q.push(make_request(base + i, 10.0 + static_cast<double>((base * 7 + i * 3) % 5)));
    if (st->producers_left.fetch_sub(1) == 1) st->q.close();
  };
  Protocol p;
  p.bodies.push_back([st] {
    while (st->q.wait_nonempty()) {
      const std::vector<serve::Request> batch = st->q.take(
          [](const serve::Request&, std::size_t pending) { return pending; });
      double last = -1.0;
      for (const serve::Request& r : batch) {
        require(r.deadline_ms >= last, "take batch not EDF-ordered");
        last = r.deadline_ms;
        st->got.push_back(r.id);
      }
    }
  });
  p.bodies.push_back([producer] { producer(100); });
  p.bodies.push_back([producer] { producer(200); });
  p.check = [st] {
    require(st->q.closed(), "queue not closed at quiescence");
    require(st->q.empty(), "requests left behind at quiescence");
    std::vector<std::uint64_t> got = st->got;
    std::sort(got.begin(), got.end());
    const std::vector<std::uint64_t> want = {100, 101, 200, 201};
    require(got == want, "consumed id set != pushed id set");
  };
  return p;
}

TEST(SchedQueue, TakeVsPushCloseConservesRequests) {
  ExploreConfig cfg;
  cfg.seed = 0xBADC0FFEE;
  cfg.random_schedules = 200;
  cfg.exhaustive_depth = 4;
  const ExploreStats stats = explore(queue_take_push_close_protocol, cfg);
  EXPECT_GE(stats.schedules, 200u + 1u);
  EXPECT_GT(stats.max_points, 10u);
}

// Heap-pop order under concurrent mutation: producers push interleaved
// deadlines while a consumer pops singles; each pop must hand out a
// then-minimal element (checked per-batch above; here we additionally
// verify the final serial drain of whatever the consumer did not pop is
// globally EDF-sorted — the heap invariant survived concurrent pushes).
Protocol queue_heap_order_protocol() {
  struct State {
    serve::RequestQueue q;
    std::vector<serve::Request> popped;
  };
  auto st = std::make_shared<State>();
  Protocol p;
  p.bodies.push_back([st] {
    for (std::uint64_t i = 0; i < 3; ++i) st->q.push(make_request(i, 5.0 - static_cast<double>(i)));
  });
  p.bodies.push_back([st] {
    for (std::uint64_t i = 10; i < 13; ++i)
      st->q.push(make_request(i, 2.5 + static_cast<double>(i - 10)));
  });
  p.bodies.push_back([st] {
    for (int i = 0; i < 3; ++i) {
      const std::vector<serve::Request> one =
          st->q.take([](const serve::Request&, std::size_t) { return std::size_t{1}; });
      for (const serve::Request& r : one) st->popped.push_back(r);
    }
  });
  p.check = [st] {
    std::vector<serve::Request> rest = st->q.steal(100);
    double last = -1.0;
    for (const serve::Request& r : rest) {
      require(r.deadline_ms >= last, "final drain not EDF-ordered");
      last = r.deadline_ms;
    }
    require(st->popped.size() + rest.size() == 6, "requests lost or duplicated");
  };
  return p;
}

TEST(SchedQueue, HeapPopOrderSurvivesConcurrentMutation) {
  ExploreConfig cfg;
  cfg.seed = 7171;
  cfg.random_schedules = 200;
  cfg.exhaustive_depth = 3;
  const ExploreStats stats = explore(queue_heap_order_protocol, cfg);
  EXPECT_GE(stats.schedules, 200u);
}

// ---------------------------------------------------------------------------
// ShardedQueue: steal-vs-drain reinsertion.
// ---------------------------------------------------------------------------

// A pusher routes six requests across two shards while a balancer migrates
// work into dry shard 0 and a drainer steals from both shards. The
// balance() window where stolen requests are in *neither* shard (yield
// point shard.balance.holding-stolen) is exactly what the interleavings
// attack. Conservation: drained + remaining == pushed, no duplicates.
Protocol shard_steal_reinsert_protocol() {
  struct State {
    State() : sq(2, 4242) {}
    serve::ShardedQueue sq;
    std::vector<std::uint64_t> drained;
    std::size_t steals_done = 0;
  };
  auto st = std::make_shared<State>();
  Protocol p;
  p.bodies.push_back([st] {
    for (std::uint64_t id = 0; id < 6; ++id)
      st->sq.push(make_request(id, 1.0 + static_cast<double>(id)));
  });
  p.bodies.push_back([st] {
    for (int round = 0; round < 3; ++round)
      if (st->sq.balance(0, 2) > 0) ++st->steals_done;
  });
  p.bodies.push_back([st] {
    for (int round = 0; round < 4; ++round) {
      for (std::size_t w = 0; w < 2; ++w)
        for (const serve::Request& r : st->sq.shard(w).steal(1))
          st->drained.push_back(r.id);
    }
  });
  p.check = [st] {
    std::vector<std::uint64_t> all = st->drained;
    for (std::size_t w = 0; w < 2; ++w)
      for (const serve::Request& r : st->sq.shard(w).steal(100)) all.push_back(r.id);
    std::sort(all.begin(), all.end());
    const std::vector<std::uint64_t> want = {0, 1, 2, 3, 4, 5};
    require(all == want, "steal/reinsert lost or duplicated a request");
    require(st->sq.steals(0) == static_cast<std::int64_t>(st->steals_done),
            "steals counter out of sync with successful balances");
  };
  return p;
}

TEST(SchedShard, StealReinsertConservesRequests) {
  ExploreConfig cfg;
  cfg.seed = 90210;
  cfg.random_schedules = 200;
  cfg.exhaustive_depth = 3;
  const ExploreStats stats = explore(shard_steal_reinsert_protocol, cfg);
  EXPECT_GE(stats.schedules, 200u);
}

// ---------------------------------------------------------------------------
// Fleet: admission racing shedding and stepping.
// ---------------------------------------------------------------------------

serve::FleetConfig sched_fleet_config() {
  serve::FleetConfig fc;
  fc.seed = 1313;
  return fc;
}

std::vector<serve::FleetWorker> sched_fleet_workers() {
  std::vector<serve::FleetWorker> workers;
  for (int w = 0; w < 2; ++w) {
    serve::FleetWorker fw;
    fw.name = "sched-w" + std::to_string(w);
    serve::ServeOption opt;
    opt.name = "timing-only";
    opt.latency_ms = [](int n) { return 1.0 + 0.1 * n; };
    fw.options.push_back(opt);
    fw.serve.max_batch = 4;
    fw.serve.seed = 5150 + static_cast<std::uint64_t>(w);
    fw.serve.jitter_sigma = 0.0;
    workers.push_back(fw);
  }
  return workers;
}

// Two submitters race a stepper: generous deadlines get admitted, hopeless
// ones shed (even the fastest option cannot meet them). The conservation
// invariant submitted == shed + served + backlog must hold at quiescence
// for the fleet totals AND the per-tenant counters, across every
// interleaving of the admit-to-push window, shedding, and serving.
Protocol fleet_admission_protocol() {
  struct State {
    State() : fleet(sched_fleet_workers(), sched_fleet_config()) {}
    serve::Fleet fleet;
    std::atomic<std::int64_t> rejected{0};
  };
  auto st = std::make_shared<State>();
  const auto submitter = [st](std::uint32_t tenant, std::uint64_t base) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      // Every third request is hopeless: deadline tighter than the fastest
      // single-request batch, shed no matter the schedule.
      const double deadline = (i == 2) ? 0.5 : 1000.0;
      serve::Request r = make_request(base + i, deadline);
      r.tenant = tenant;
      if (st->fleet.submit(r, 0.0).has_value()) st->rejected.fetch_add(1);
    }
  };
  Protocol p;
  p.bodies.push_back([submitter] { submitter(1, 100); });
  p.bodies.push_back([submitter] { submitter(2, 200); });
  p.bodies.push_back([st] {
    double now = 0.0;
    for (int i = 0; i < 12; ++i) {
      (void)st->fleet.step(now);
      now += 2.0;
    }
  });
  p.check = [st] {
    const serve::FleetStats fs = st->fleet.stats();
    require(fs.submitted == 6, "submitted count wrong");
    require(fs.shed == st->rejected.load(), "shed != rejections returned to submitters");
    require(fs.submitted == fs.shed + fs.served +
                                static_cast<std::int64_t>(st->fleet.backlog()),
            "fleet conservation violated: submitted != shed + served + backlog");
    std::int64_t t_submitted = 0, t_shed = 0, t_served = 0;
    for (const auto& [tenant, tc] : st->fleet.tenants()) {
      t_submitted += tc.submitted;
      t_shed += tc.shed;
      t_served += tc.served;
    }
    require(t_submitted == fs.submitted && t_shed == fs.shed && t_served == fs.served,
            "per-tenant counters out of sync with fleet totals");
  };
  return p;
}

TEST(SchedFleet, AdmissionRacingSheddingConserves) {
  ExploreConfig cfg;
  cfg.seed = 60606;
  cfg.random_schedules = 200;
  cfg.exhaustive_depth = 2;
  const ExploreStats stats = explore(fleet_admission_protocol, cfg);
  EXPECT_GE(stats.schedules, 200u);
}

// Regression for the data-visibility fixes: live reporters (watchdog
// current/window_miss_rate, fleet stats) race the serving thread's
// mutations. Before this PR current_ and the steals counters were naked
// fields read outside any lock.
Protocol watchdog_live_report_protocol() {
  struct State {
    State() : wd(make_config(), 3) {}
    static netcut::app::WatchdogConfig make_config() {
      netcut::app::WatchdogConfig c;
      c.window = 2;
      c.cooldown_frames = 1;
      c.recover_patience = 1;
      c.breach_miss_rate = 0.5;
      return c;
    }
    netcut::app::MissRateWatchdog wd;
    std::size_t last_seen = 0;
  };
  auto st = std::make_shared<State>();
  Protocol p;
  p.bodies.push_back([st] {
    for (int i = 0; i < 6; ++i) st->wd.observe(/*missed=*/true, /*slower_fits=*/false);
  });
  p.bodies.push_back([st] {
    for (int i = 0; i < 4; ++i) {
      const std::size_t cur = st->wd.current();
      const double rate = st->wd.window_miss_rate();
      require(cur < 3, "current() out of range");
      require(rate >= 0.0 && rate <= 1.0, "window_miss_rate() out of range");
      st->last_seen = cur;
    }
  });
  p.check = [st] {
    require(st->wd.current() == 2, "six straight misses must walk to the fastest option");
  };
  return p;
}

TEST(SchedRegression, WatchdogLiveReadsRaceObserve) {
  ExploreConfig cfg;
  cfg.seed = 31337;
  cfg.random_schedules = 200;
  cfg.exhaustive_depth = 3;
  const ExploreStats stats = explore(watchdog_live_report_protocol, cfg);
  EXPECT_GE(stats.schedules, 200u);
}

// ---------------------------------------------------------------------------
// Determinism + replay.
// ---------------------------------------------------------------------------

TEST(SchedDeterminism, SameSeedBitReproducibleSchedule) {
  sched::RandomSchedule a(424242), b(424242);
  const sched::RunResult ra = run_one_schedule(queue_take_push_close_protocol, a, 200000);
  const sched::RunResult rb = run_one_schedule(queue_take_push_close_protocol, b, 200000);
  EXPECT_EQ(ra.picks, rb.picks);
  EXPECT_EQ(ra.trace, rb.trace);
  EXPECT_EQ(ra.branching, rb.branching);
}

TEST(SchedDeterminism, RecordedScheduleReplaysVerbatim) {
  sched::RandomSchedule src(777);
  const sched::RunResult recorded =
      run_one_schedule(shard_steal_reinsert_protocol, src, 200000);
  const sched::RunResult again = replay(shard_steal_reinsert_protocol, recorded.picks);
  EXPECT_EQ(recorded.trace, again.trace);
  EXPECT_EQ(recorded.picks, again.picks);
}

TEST(SchedDeterminism, PickFormatRoundTrips) {
  const std::vector<std::size_t> picks = {0, 1, 1, 2, 0, 3};
  EXPECT_EQ(sched::parse_picks(sched::format_picks(picks)), picks);
  EXPECT_TRUE(sched::parse_picks("").empty());
}

// ---------------------------------------------------------------------------
// Negative: the explorer must CATCH seeded concurrency bugs.
// ---------------------------------------------------------------------------

// The classic lost wakeup: the emptiness decision is made in one critical
// section, the (naked) wait happens in a later one, and a produce landing
// in the gap notifies nobody. Under a plain run this hangs rarely; the
// explorer constructs the schedule and reports a structural deadlock with
// a replayable trace.
struct BuggyCell {
  util::RankedMutex mu{util::rank::kQueue, "test/buggy-cell"};
  util::CondVar cv;
  int items = 0;

  bool has_item() {
    util::MutexLock l(mu);
    return items > 0;
  }
  void produce() {
    {
      util::MutexLock l(mu);
      ++items;
    }
    cv.notify_one();
  }
  void consume_buggy() {
    if (!has_item()) {  // BUG: the gap — decision taken, lock dropped
      util::MutexLock l(mu);
      cv.wait(mu);  // BUG: naked wait; a notify before this line is lost
    }
    util::MutexLock l(mu);
    --items;
  }
  void consume_correct() {
    util::MutexLock l(mu);
    cv.wait(mu, [&]() NETCUT_REQUIRES(mu) { return items > 0; });
    --items;
  }
};

Protocol lost_wakeup_protocol() {
  auto cell = std::make_shared<BuggyCell>();
  Protocol p;
  p.bodies.push_back([cell] { cell->consume_buggy(); });
  p.bodies.push_back([cell] { cell->produce(); });
  return p;
}

Protocol correct_wakeup_protocol() {
  auto cell = std::make_shared<BuggyCell>();
  Protocol p;
  p.bodies.push_back([cell] { cell->consume_correct(); });
  p.bodies.push_back([cell] { cell->produce(); });
  return p;
}

TEST(SchedNegative, ExplorerCatchesSeededLostWakeup) {
  ExploreConfig cfg;
  cfg.seed = 1;
  cfg.random_schedules = 300;
  cfg.exhaustive_depth = 8;
  std::optional<sched::ScheduleError> caught;
  try {
    explore(lost_wakeup_protocol, cfg);
  } catch (const sched::ScheduleError& e) {
    caught = e;
  }
  ASSERT_TRUE(caught.has_value()) << "schedule explorer failed to find the lost wakeup";
  EXPECT_TRUE(caught->deadlock());
  EXPECT_NE(std::string(caught->what()).find("cv.wait"), std::string::npos)
      << "deadlock report should show the stuck waiter: " << caught->what();
  EXPECT_FALSE(caught->picks().empty());

  // The recorded failing schedule replays verbatim — same structural
  // deadlock, same reason — which is what makes these reports actionable.
  try {
    replay(lost_wakeup_protocol, caught->picks());
    FAIL() << "replay of the failing pick list did not reproduce the deadlock";
  } catch (const sched::ScheduleError& e) {
    EXPECT_TRUE(e.deadlock());
    EXPECT_EQ(e.reason(), caught->reason());
  }
}

TEST(SchedNegative, CorrectWaitProtocolSurvivesSameCampaign) {
  ExploreConfig cfg;
  cfg.seed = 1;
  cfg.random_schedules = 300;
  cfg.exhaustive_depth = 8;
  EXPECT_NO_THROW(explore(correct_wakeup_protocol, cfg));
}

// Two-mutex handlock (AB vs BA): the explorer finds the deadlock and the
// trace names both stuck threads. The same bug is caught *earlier* (at
// acquisition, before any deadlock) by the runtime rank analyzer — see the
// LockCheckDeathTest suite below. Ranks are deliberately equal here so the
// explorer, not the rank rule, is the detector under test.
Protocol handlock_protocol() {
  struct State {
    util::RankedMutex a{util::rank::kQueue, "test/hand-a"};
    util::RankedMutex b{util::rank::kQueue, "test/hand-b"};
  };
  auto st = std::make_shared<State>();
  Protocol p;
  p.bodies.push_back([st] {
    util::MutexLock la(st->a);
    util::MutexLock lb(st->b);
  });
  p.bodies.push_back([st] {
    util::MutexLock lb(st->b);
    util::MutexLock la(st->a);
  });
  return p;
}

TEST(SchedNegative, ExplorerCatchesHandlock) {
  util::RankedMutex::set_check_enabled(false);  // let it deadlock, not abort
  ExploreConfig cfg;
  cfg.seed = 2;
  cfg.random_schedules = 200;
  cfg.exhaustive_depth = 4;
  std::optional<sched::ScheduleError> caught;
  try {
    explore(handlock_protocol, cfg);
  } catch (const sched::ScheduleError& e) {
    caught = e;
  }
  ASSERT_TRUE(caught.has_value());
  EXPECT_TRUE(caught->deadlock());
  EXPECT_NE(std::string(caught->what()).find("blocked"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Runtime lock-discipline analyzer (NETCUT_LOCKCHECK).
// ---------------------------------------------------------------------------

// Each seeded violation lives in a helper: EXPECT_DEATH's statement must
// not contain top-level commas (macro parsing), and the child re-runs only
// the statement, so the analyzer is armed inside.
void seeded_order_inversion() {
  util::RankedMutex::set_check_enabled(true);
  util::RankedMutex hi(util::rank::kWatchdog, "test/hi");
  util::RankedMutex lo(util::rank::kQueue, "test/lo");
  util::MutexLock lh(hi);
  util::MutexLock ll(lo);  // rank 40 under rank 50: inversion
}

void seeded_recursive_acquisition() {
  util::RankedMutex::set_check_enabled(true);
  util::RankedMutex m(util::rank::kQueue, "test/rec");
  util::MutexLock l1(m);
  m.lock();  // same rank: recursive
}

void seeded_held_while_blocking() {
  util::RankedMutex::set_check_enabled(true);
  util::RankedMutex outer(util::rank::kFleet, "test/outer");
  util::RankedMutex inner(util::rank::kQueue, "test/inner");
  util::CondVar cv;
  util::MutexLock lo(outer);
  util::MutexLock li(inner);
  cv.wait(inner);  // parked on a condvar while also holding 'outer'
}

TEST(LockCheckDeathTest, SeededOrderInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(seeded_order_inversion(),
               "lock-order inversion.*'test/lo' \\(rank 40\\).*'test/hi' \\(rank 50\\)");
}

TEST(LockCheckDeathTest, RecursiveAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(seeded_recursive_acquisition(), "recursive acquisition.*'test/rec'");
}

TEST(LockCheckDeathTest, HeldWhileBlockingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(seeded_held_while_blocking(),
               "held-while-blocking.*'test/inner'.*'test/outer'");
}

TEST(LockCheck, RankIncreasingNestingPasses) {
  util::RankedMutex::set_check_enabled(true);
  {
    util::RankedMutex fleet{util::rank::kFleet, "test/fleet"};
    util::RankedMutex server{util::rank::kServer, "test/server"};
    util::RankedMutex queue{util::rank::kQueue, "test/queue"};
    util::MutexLock a(fleet);
    util::MutexLock b(server);
    util::MutexLock c(queue);
  }
  util::RankedMutex::set_check_enabled(false);
}

TEST(LockCheck, ServePrimitivesRunCleanUnderAnalyzer) {
  // The real protocols, single-threaded, with the analyzer armed: the
  // production rank table must hold along every nesting chain exercised.
  util::RankedMutex::set_check_enabled(true);
  {
    serve::Fleet fleet(sched_fleet_workers(), sched_fleet_config());
    for (std::uint64_t i = 0; i < 6; ++i) {
      serve::Request r = make_request(i, 1000.0);
      r.tenant = static_cast<std::uint32_t>(i % 2);
      (void)fleet.submit(r, 0.0);
    }
    double now = 0.0;
    for (int i = 0; i < 8; ++i) {
      (void)fleet.step(now);
      now += 2.0;
    }
    const serve::FleetStats fs = fleet.stats();
    EXPECT_EQ(fs.submitted, 6);
    EXPECT_EQ(fs.shed + fs.served + static_cast<std::int64_t>(fleet.backlog()), 6);
  }
  util::RankedMutex::set_check_enabled(false);
}

}  // namespace
