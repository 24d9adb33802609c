// The serving layer: EDF queue semantics (incrementally maintained heap),
// deadline-aware batch forming, the shared miss-rate watchdog, the
// deterministic open-loop load simulation — and the fleet layer on top:
// sharded queues with seeded work stealing, admission control with
// explicit shedding, per-tenant SLO accounting, and multi-worker scaling.
//
// This suite carries the `serve` ctest label and runs clean, under the
// NETCUT_FAULTS chaos schedule, and under TSan in check.sh, so every
// assertion must hold with fault injection active (the global schedule
// flows into BatchServer by default). Tests that pin tight latency bounds
// disable faults explicitly via ServeConfig::faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/watchdog.hpp"
#include "core/cascade.hpp"
#include "core/trn.hpp"
#include "hw/device.hpp"
#include "hw/faults.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "serve/batcher.hpp"
#include "serve/fleet.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "serve/sim.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "zoo/zoo.hpp"

namespace netcut {
namespace {

using serve_sim::FleetLoadConfig;
using serve_sim::FleetReport;
using serve_sim::LoadConfig;
using serve_sim::SimReport;
using tensor::Shape;
using tensor::Tensor;

serve::Request req(std::uint64_t id, double arrival, double deadline,
                   const Tensor* input = nullptr, std::uint32_t tenant = 0) {
  serve::Request r;
  r.id = id;
  r.arrival_ms = arrival;
  r.deadline_ms = deadline;
  r.input = input;
  r.tenant = tenant;
  return r;
}

/// Take every pending request (EDF order) from a queue.
std::vector<serve::Request> take_all(serve::RequestQueue& q) {
  return q.take([](const serve::Request&, std::size_t pending) { return pending; });
}

/// Batched-latency curve (batches 1..8) of a zoo trunk on the simulated
/// device, scaled by `scale`.
std::function<double(int)> batch_curve(const std::shared_ptr<const nn::Graph>& graph,
                                       double scale = 1.0) {
  return [curve = hw::DeviceModel().batch_curve(*graph, hw::Precision::kInt8, true, 8),
          scale](int b) { return scale * curve(b); };
}

std::shared_ptr<const nn::Graph> small_trunk() {
  return std::make_shared<const nn::Graph>(
      zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32));
}

/// A homogeneous timing-only fleet over `n` replicas of the small trunk.
/// Faults pinned off when `tight` (tests asserting sharp latency bounds
/// must hold under the chaos schedule too). fallback_scale = 1.0 drops the
/// fallback rung: a single-option fleet, whose capacity is exactly the
/// preferred curve (the clean setup for capacity/shedding arithmetic).
serve::Fleet make_fleet(const std::shared_ptr<const nn::Graph>& graph, std::size_t n,
                        serve::FleetConfig cfg, double nominal_deadline_ms,
                        bool tight = false, double fallback_scale = 0.25,
                        const hw::FaultModel* fleet_faults = nullptr) {
  std::vector<serve::FleetWorker> workers;
  for (std::size_t w = 0; w < n; ++w) {
    serve::FleetWorker fw;
    fw.name = "w" + std::to_string(w);
    fw.options = {{"preferred", nullptr, batch_curve(graph), {}}};
    if (fallback_scale < 1.0)
      fw.options.push_back({"fallback", nullptr, batch_curve(graph, fallback_scale), {}});
    fw.serve.max_batch = 8;
    fw.serve.nominal_deadline_ms = nominal_deadline_ms;
    fw.serve.seed = util::derive_seed(7070, "fleet/worker/" + std::to_string(w));
    if (tight) fw.serve.faults = &hw::FaultModel::disabled();
    workers.push_back(std::move(fw));
  }
  // Worker-scoped fault clauses (crash=/hang=/flaky=) are pinned off at the
  // fleet level unless a test passes its own model: this suite's numeric
  // contracts describe the healthy fleet (and must hold under the
  // multiplier chaos schedule); replica failure is exercised with explicit
  // schedules here and in test_serve_failover.
  cfg.faults = fleet_faults != nullptr ? fleet_faults : &hw::FaultModel::disabled();
  return serve::Fleet(std::move(workers), std::move(cfg));
}

TEST(ServeQueue, TakeIsEdfOrderedAndAtomic) {
  serve::RequestQueue q;
  q.push(req(0, 0.0, 30.0));
  q.push(req(1, 1.0, 10.0));
  q.push(req(2, 2.0, 20.0));
  ASSERT_EQ(q.size(), 3u);

  // The policy sees the EDF head and the backlog size under the lock...
  serve::Request head;
  std::size_t pending = 0;
  const auto taken = q.take([&](const serve::Request& h, std::size_t n) {
    head = h;
    pending = n;
    return std::size_t{2};
  });
  EXPECT_EQ(head.id, 1u);
  EXPECT_EQ(pending, 3u);
  // ... and the earliest-deadline prefix is popped in EDF order.
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].id, 1u);
  EXPECT_EQ(taken[1].id, 2u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(ServeQueue, DeadlineTiesBreakById) {
  serve::RequestQueue q;
  q.push(req(7, 0.0, 5.0));
  q.push(req(3, 1.0, 5.0));
  const auto taken = take_all(q);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].id, 3u);
  EXPECT_EQ(taken[1].id, 7u);
}

TEST(ServeQueue, HeapPopOrderMatchesFullEdfSort) {
  // The heap replaced a full std::sort per take; the contract is that pop
  // order is bit-identical to the sorted order, including deadline ties.
  util::Rng rng(20260808);
  std::vector<serve::Request> all;
  serve::RequestQueue q;
  for (std::uint64_t i = 0; i < 500; ++i) {
    // Coarse deadlines force plenty of ties (broken by id).
    const double deadline = static_cast<double>(rng.uniform_int(0, 40));
    all.push_back(req(i, 0.0, deadline));
  }
  // Interleave pushes and partial takes to exercise incremental maintenance.
  std::vector<serve::Request> popped;
  std::size_t fed = 0;
  while (popped.size() < all.size()) {
    while (fed < all.size() && fed < popped.size() + 37) q.push(all[fed++]);
    const auto got = q.take([&](const serve::Request&, std::size_t pending) {
      return std::min<std::size_t>(pending, 5);
    });
    for (const auto& r : got) popped.push_back(r);
  }
  // Reference: what repeated sorted-prefix pops would have produced. With
  // the same interleaving, that is a global merge respecting (deadline, id)
  // among whatever was pending — replay it with a multiset-style sim.
  std::vector<serve::Request> pend, expect;
  fed = 0;
  auto edf_less = [](const serve::Request& a, const serve::Request& b) {
    if (a.deadline_ms != b.deadline_ms) return a.deadline_ms < b.deadline_ms;
    return a.id < b.id;
  };
  while (expect.size() < all.size()) {
    while (fed < all.size() && fed < expect.size() + 37) pend.push_back(all[fed++]);
    std::sort(pend.begin(), pend.end(), edf_less);
    const std::size_t n = std::min<std::size_t>(pend.size(), 5);
    expect.insert(expect.end(), pend.begin(), pend.begin() + static_cast<std::ptrdiff_t>(n));
    pend.erase(pend.begin(), pend.begin() + static_cast<std::ptrdiff_t>(n));
  }
  ASSERT_EQ(popped.size(), expect.size());
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i].id, expect[i].id) << "position " << i;
    EXPECT_EQ(popped[i].deadline_ms, expect[i].deadline_ms) << "position " << i;
  }
}

TEST(ServeQueue, CloseStopsPushesAndWakesWaiters) {
  serve::RequestQueue q;
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.wait_nonempty());
  EXPECT_THROW(q.push(req(0, 0.0, 1.0)), std::logic_error);
}

TEST(ServeQueue, ClosedQueueStillDrainsAndAcceptsReinserts) {
  // close() stops new arrivals but in-flight work still migrates between
  // shards and gets served: take/steal/reinsert must all work post-close.
  serve::RequestQueue q;
  q.push(req(0, 0.0, 5.0));
  q.close();
  EXPECT_THROW(q.push(req(1, 0.0, 1.0)), std::logic_error);
  q.reinsert(req(2, 0.0, 1.0));  // stolen work re-entering
  const auto stolen = q.steal(1);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen[0].id, 2u);
  const auto rest = take_all(q);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].id, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(ServeQueue, CloseRacesConcurrentPushers) {
  // N threads hammer push while the main thread closes mid-stream. Every
  // push must either land or throw logic_error — and the queue must end up
  // holding exactly the landed ones. Run under TSan in check.sh.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  serve::RequestQueue q;
  std::atomic<int> landed{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> pushers;
  pushers.reserve(kThreads);
  for (int p = 0; p < kThreads; ++p)
    pushers.emplace_back([&, p] {
      for (int i = 0; i < kPerThread; ++i) {
        try {
          q.push(req(static_cast<std::uint64_t>(p * kPerThread + i), 0.0, 1.0));
          landed.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::logic_error&) {
          refused.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  q.close();  // races the pushers on purpose
  for (auto& t : pushers) t.join();
  EXPECT_EQ(landed.load() + refused.load(), kThreads * kPerThread);
  EXPECT_EQ(q.size(), static_cast<std::size_t>(landed.load()));
  EXPECT_TRUE(q.closed());
  // Drain still works and is EDF-ordered.
  const auto drained = take_all(q);
  EXPECT_EQ(drained.size(), static_cast<std::size_t>(landed.load()));
}

TEST(ShardedQueue, RoutesByTenantAndStealsEdfHead) {
  serve::ShardedQueue sq(2, 1234);
  // One tenant: rendezvous hashing sends its whole stream to one home
  // shard (deterministic per seed), so the other shard runs dry.
  const std::size_t home = sq.route(0);
  const std::size_t thief = 1 - home;
  sq.push(req(0, 0.0, 40.0));
  sq.push(req(2, 0.0, 10.0));
  sq.push(req(4, 0.0, 20.0));
  sq.push(req(6, 0.0, 30.0));
  EXPECT_EQ(sq.shard(home).size(), 4u);
  EXPECT_EQ(sq.shard(thief).size(), 0u);

  // The dry worker steals: it takes the victim's earliest-deadline work.
  const std::size_t stolen = sq.balance(thief, 2);
  EXPECT_EQ(stolen, 2u);
  EXPECT_EQ(sq.steals(thief), 1);
  EXPECT_EQ(sq.shard(home).size(), 2u);
  ASSERT_EQ(sq.shard(thief).size(), 2u);
  const auto got = take_all(sq.shard(thief));
  EXPECT_EQ(got[0].id, 2u);  // deadline 10
  EXPECT_EQ(got[1].id, 4u);  // deadline 20

  // A non-dry shard never steals.
  sq.push(req(8, 0.0, 5.0));
  EXPECT_EQ(sq.balance(home, 8), 0u);
}

TEST(ShardedQueue, RendezvousRoutingIsDeterministicAndMinimallyDisruptive) {
  // Same seed -> identical routing; different seed -> a different (but
  // still valid) assignment. Dropping one shard from the routable set only
  // remaps the tenants whose home was the dropped shard — every other
  // tenant keeps its home (the minimal-disruption property that makes
  // failover cheap: survivors' queues keep their EDF state).
  serve::ShardedQueue a(4, 777);
  serve::ShardedQueue b(4, 777);
  std::map<std::uint32_t, std::size_t> before;
  for (std::uint32_t tenant = 0; tenant < 64; ++tenant) {
    EXPECT_EQ(a.route(tenant), b.route(tenant));
    before[tenant] = a.route(tenant);
  }
  // All four shards attract some tenant (HRW spreads the keyspace).
  std::vector<int> hits(4, 0);
  for (const auto& [tenant, s] : before) ++hits[s];
  for (int h : hits) EXPECT_GT(h, 0);

  a.set_routable(2, false);
  for (std::uint32_t tenant = 0; tenant < 64; ++tenant) {
    const std::size_t now = a.route(tenant);
    EXPECT_NE(now, 2u);
    if (before[tenant] != 2) {
      EXPECT_EQ(now, before[tenant]);
    }
  }
  // Restoring the shard restores the original assignment exactly.
  a.set_routable(2, true);
  for (std::uint32_t tenant = 0; tenant < 64; ++tenant)
    EXPECT_EQ(a.route(tenant), before[tenant]);
  // With nothing routable, route() falls back to the full shard set.
  for (std::size_t s = 0; s < 4; ++s) a.set_routable(s, false);
  for (std::uint32_t tenant = 0; tenant < 8; ++tenant)
    EXPECT_EQ(a.route(tenant), before[tenant]);
}

TEST(ShardedQueue, StealFromEmptyShardSetIsANoOp) {
  serve::ShardedQueue sq(4, 99);
  EXPECT_EQ(sq.total_size(), 0u);
  for (std::size_t w = 0; w < sq.shards(); ++w) {
    EXPECT_EQ(sq.balance(w, 8), 0u);
    EXPECT_EQ(sq.steals(w), 0);
  }
  EXPECT_EQ(sq.total_size(), 0u);
  // The empty attempts consumed no RNG draws: the first real steal matches
  // a fresh same-seed shard set's first steal bit-for-bit.
  serve::ShardedQueue fresh(4, 99);
  for (std::uint64_t i = 0; i < 8; ++i) {
    sq.push(req(i * 4 + 1, 0.0, static_cast<double>(i)));   // one tenant, one home shard
    fresh.push(req(i * 4 + 1, 0.0, static_cast<double>(i)));
  }
  const std::size_t thief = (sq.route(0) + 1) % 4;  // a shard that is dry for sure
  EXPECT_EQ(sq.balance(thief, 3), fresh.balance(thief, 3));
  const auto a = take_all(sq.shard(thief));
  const auto b = take_all(fresh.shard(thief));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

TEST(BatchFormer, PacksLargestBatchMeetingTheEarliestDeadline) {
  // Linear curve: lat(n) = 1 + n.
  serve::BatchFormer former({/*max_batch=*/8},
                            [](int n) { return 1.0 + static_cast<double>(n); });
  // now=0, head deadline 6, 10 pending: need 1 + n <= 6 -> n = 5.
  EXPECT_EQ(former.choose(0.0, 6.0, 10), 5u);
  // now=4: 4 + 1 + n <= 6 -> n = 1.
  EXPECT_EQ(former.choose(4.0, 6.0, 10), 1u);
  // Already hopeless head: still served — in the largest batch, since
  // nothing can save it and full amortization drains the backlog fastest.
  EXPECT_EQ(former.choose(100.0, 6.0, 10), 8u);
  // Head that fits alone but not with company: batch of exactly 1.
  EXPECT_EQ(former.choose(3.9, 6.0, 10), 1u);
  // Plenty of slack: capped by max_batch, then by pending.
  EXPECT_EQ(former.choose(0.0, 1e6, 10), 8u);
  EXPECT_EQ(former.choose(0.0, 1e6, 3), 3u);
  EXPECT_EQ(former.choose(0.0, 6.0, 0), 0u);
}

TEST(MissRateWatchdog, BreachFallsBackCooldownAndPatienceGateRecovery) {
  app::WatchdogConfig cfg;
  cfg.window = 4;
  cfg.breach_miss_rate = 0.5;
  cfg.recover_miss_rate = 0.0;
  cfg.cooldown_frames = 4;
  cfg.recover_patience = 3;
  app::MissRateWatchdog wd(cfg, 2);
  ASSERT_TRUE(wd.adaptive());
  EXPECT_DOUBLE_EQ(wd.window_miss_rate(), 0.0);

  // Fill the window with misses: the first full-window breach acts at once.
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(wd.observe(true, false).action, app::MissRateWatchdog::Action::kStay);
  EXPECT_DOUBLE_EQ(wd.window_miss_rate(), 1.0);
  const auto fall = wd.observe(true, false);
  EXPECT_EQ(fall.action, app::MissRateWatchdog::Action::kFallBack);
  EXPECT_DOUBLE_EQ(fall.window_miss_rate, 1.0);
  EXPECT_EQ(wd.current(), 1u);
  EXPECT_DOUBLE_EQ(wd.window_miss_rate(), 0.0);  // window resets on switch

  // Calm but slower-does-not-fit: never recovers.
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(wd.observe(false, false).action, app::MissRateWatchdog::Action::kStay);
  EXPECT_EQ(wd.current(), 1u);

  // Calm and fitting: recovers after the patience streak.
  int recovered_at = -1;
  for (int i = 0; i < 10; ++i) {
    if (wd.observe(false, true).action == app::MissRateWatchdog::Action::kRecover) {
      recovered_at = i;
      break;
    }
  }
  EXPECT_EQ(recovered_at, 2);  // three consecutive calm+fitting observations
  EXPECT_EQ(wd.current(), 0u);
}

TEST(ServeSim, SameSeedIsBitIdentical) {
  const auto g = small_trunk();
  LoadConfig load;
  load.requests = 300;
  const auto curve = batch_curve(g);
  load.mean_interarrival_ms = curve(1) / 4.0;
  load.deadline_slack_ms = 4.0 * curve(1);

  auto run = [&] {
    serve::RequestQueue q;
    serve::ServeConfig sc;
    sc.nominal_deadline_ms = load.deadline_slack_ms;
    serve::BatchServer server({{"trn", nullptr, batch_curve(g), {}}}, q, sc);
    return serve_sim::run_open_loop(server, q, serve_sim::generate_arrivals(load, {}));
  };
  const SimReport a = run();
  const SimReport b = run();
  ASSERT_EQ(a.completions.size(), 300u);
  EXPECT_TRUE(serve_sim::reports_identical(a, b));
}

TEST(ServeSim, BatchedServingBeatsSingleRequestUnderOverload) {
  // Arrivals at ~5x the single-request service rate: an unbatched server
  // saturates (queue and response times grow without bound); the batched
  // one amortizes launches and weights and keeps up.
  const auto g = small_trunk();
  const auto curve = batch_curve(g);
  LoadConfig load;
  load.requests = 400;
  load.mean_interarrival_ms = curve(1) / 5.0;
  load.deadline_slack_ms = 6.0 * curve(1);

  auto run = [&](int max_batch) {
    serve::RequestQueue q;
    serve::ServeConfig sc;
    sc.max_batch = max_batch;
    sc.nominal_deadline_ms = load.deadline_slack_ms;
    serve::BatchServer server({{"trn", nullptr, batch_curve(g), {}}}, q, sc);
    return serve_sim::run_open_loop(server, q, serve_sim::generate_arrivals(load, {}));
  };
  const SimReport single = run(1);
  const SimReport batched = run(8);

  EXPECT_GE(batched.throughput_rps, 3.0 * single.throughput_rps)
      << "batched=" << batched.throughput_rps << " rps, single=" << single.throughput_rps
      << " rps";
  EXPECT_LE(batched.miss_rate, single.miss_rate)
      << "batched=" << batched.miss_rate << " single=" << single.miss_rate;
  EXPECT_LE(batched.p99_response_ms, single.p99_response_ms);
  EXPECT_GT(batched.mean_batch, 1.5);
}

TEST(ServeSim, SaturationFallsBackToFasterTrnLikeADeadlineBreach) {
  // A Pareto front of two options: the preferred TRN cannot sustain the
  // offered load even batched; the fallback (a deeper cut, ~4x faster) can.
  // Queue saturation shows up as deadline misses, the shared watchdog
  // breaches, and the server sheds load by switching options.
  const auto g = small_trunk();
  const auto slow = batch_curve(g);
  LoadConfig load;
  load.requests = 600;
  load.mean_interarrival_ms = slow(8) / 8.0 * 0.8;  // beyond batched capacity
  load.deadline_slack_ms = 3.0 * slow(1);

  serve::RequestQueue q;
  serve::ServeConfig sc;
  sc.max_batch = 8;
  sc.nominal_deadline_ms = load.deadline_slack_ms;
  sc.watchdog.window = 16;
  sc.watchdog.cooldown_frames = 32;
  serve::BatchServer server(
      {{"preferred", nullptr, batch_curve(g), {}}, {"fallback", nullptr, batch_curve(g, 0.25), {}}},
      q, sc);
  const SimReport rep =
      serve_sim::run_open_loop(server, q, serve_sim::generate_arrivals(load, {}));

  ASSERT_FALSE(server.stats().switches.empty());
  EXPECT_EQ(server.stats().switches.front().from, 0u);
  EXPECT_EQ(server.stats().switches.front().to, 1u);
  // The fallback served a substantial share of the load.
  std::int64_t on_fallback = 0;
  for (const serve::Completion& c : rep.completions) on_fallback += c.option == 1 ? 1 : 0;
  EXPECT_GT(on_fallback, 0);
  EXPECT_LT(rep.miss_rate, 1.0);
}

TEST(ServeSim, ServedOutputsBitwiseIdenticalToSingleImageForwards) {
  // The whole point of the batched forward path: what a client gets back
  // from a batch-N launch is exactly what a dedicated single-image pass
  // would have produced.
  nn::Graph g = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  util::Rng rng(515);
  nn::init_graph(g, rng);
  nn::Network served(g);
  nn::Network reference(g);

  std::vector<Tensor> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f));

  auto graph_ptr = std::make_shared<const nn::Graph>(served.graph());
  const auto curve = batch_curve(graph_ptr);
  LoadConfig load;
  load.requests = 64;
  load.mean_interarrival_ms = curve(1) / 4.0;
  load.deadline_slack_ms = 5.0 * curve(1);

  serve::RequestQueue q;
  serve::ServeConfig sc;
  sc.nominal_deadline_ms = load.deadline_slack_ms;
  serve::BatchServer server({{"trn", &served, batch_curve(graph_ptr), {}}}, q, sc);
  const SimReport rep =
      serve_sim::run_open_loop(server, q, serve_sim::generate_arrivals(load, pool));

  ASSERT_EQ(rep.completions.size(), 64u);
  bool saw_multi = false;
  for (const serve::Completion& c : rep.completions) {
    saw_multi = saw_multi || c.batch > 1;
    const Tensor expect = reference.forward(pool[c.id % pool.size()]);
    ASSERT_EQ(c.output.shape(), expect.shape());
    ASSERT_EQ(std::memcmp(c.output.data(), expect.data(),
                          sizeof(float) * static_cast<std::size_t>(expect.numel())),
              0)
        << "request " << c.id << " (batch " << c.batch << ")";
  }
  EXPECT_TRUE(saw_multi) << "load never formed a multi-request batch";
}

TEST(ServeSim, CascadeSameSeedBitIdenticalAndNoSilentOutcomes) {
  // Timing-only cascade option: escalation wishes are Bernoulli(p) draws
  // keyed on (cascade seed, request id), so two same-seed runs must agree
  // on every completion — including the escalated flag, which rides bit 3
  // of the completion digest.
  const auto g = small_trunk();
  const auto deep = batch_curve(g);
  LoadConfig load;
  load.requests = 400;
  load.mean_interarrival_ms = deep(1) / 3.0;
  load.deadline_slack_ms = 6.0 * deep(1);

  auto run = [&] {
    serve::RequestQueue q;
    serve::ServeConfig sc;
    sc.max_batch = 8;
    sc.nominal_deadline_ms = load.deadline_slack_ms;
    serve::ServeCascade cascade;
    cascade.enabled = true;
    cascade.threshold = 0.2;
    cascade.p_escalate = 0.3;
    cascade.stage2_ms = batch_curve(g, 0.6);
    serve::BatchServer server({{"cascade", nullptr, batch_curve(g, 0.35), cascade}}, q, sc);
    SimReport rep = serve_sim::run_open_loop(server, q, serve_sim::generate_arrivals(load, {}));
    return std::make_pair(std::move(rep), server.stats().escalated);
  };
  const auto [a, esc_a] = run();
  const auto [b, esc_b] = run();

  ASSERT_EQ(a.completions.size(), 400u);
  EXPECT_TRUE(serve_sim::reports_identical(a, b));
  std::uint64_t ha = 14695981039346656037ull, hb = ha;
  for (const serve::Completion& c : a.completions) serve_sim::digest_completion(ha, c);
  for (const serve::Completion& c : b.completions) serve_sim::digest_completion(hb, c);
  EXPECT_EQ(ha, hb);

  // No silent outcomes: every submitted request completes exactly once with
  // explicit flags, and the server's escalation counter matches the
  // per-completion flags.
  std::vector<char> seen(a.completions.size(), 0);
  std::int64_t escalated = 0;
  for (const serve::Completion& c : a.completions) {
    ASSERT_LT(c.id, seen.size());
    ASSERT_EQ(seen[c.id], 0) << "request " << c.id << " completed twice";
    seen[c.id] = 1;
    escalated += c.escalated ? 1 : 0;
  }
  EXPECT_EQ(escalated, esc_a);
  EXPECT_EQ(esc_a, esc_b);
  EXPECT_GT(escalated, 0);
  EXPECT_LT(escalated, 400);
}

TEST(ServeSim, CascadeTailNoWorseThanEqualAccuracyStaticCut) {
  // A mixed easy/hard workload against the static cut that delivers the
  // cascade's accuracy — the deep one (escalations produce the deep TRN's
  // output, early exits only take high-confidence answers). Unbatched, the
  // deep cut cannot sustain the offered load; the cascade pays the full
  // two-stage price only for the escalating fraction and keeps up, so its
  // p99 and miss rate must be no worse.
  const auto g = small_trunk();
  const auto deep = batch_curve(g);
  LoadConfig load;
  load.requests = 400;
  load.mean_interarrival_ms = 0.9 * deep(1);  // beyond the unbatched deep rate
  load.deadline_slack_ms = 4.0 * deep(1);
  const auto arrivals = serve_sim::generate_arrivals(load, {});

  auto run = [&](bool cascaded) {
    serve::RequestQueue q;
    serve::ServeConfig sc;
    sc.max_batch = 1;
    sc.nominal_deadline_ms = load.deadline_slack_ms;
    serve::ServeCascade cascade;
    if (cascaded) {
      cascade.enabled = true;
      cascade.threshold = 0.2;
      cascade.p_escalate = 0.25;
      // Stage 2 resumes from the shared prefix: stage1 + stage2 lands near
      // (just above) the deep cut's from-scratch cost.
      cascade.stage2_ms = batch_curve(g, 0.6);
    }
    serve::BatchServer server(
        {{cascaded ? "cascade" : "deep", nullptr,
          cascaded ? batch_curve(g, 0.35) : batch_curve(g), cascade}},
        q, sc);
    return serve_sim::run_open_loop(server, q, arrivals);
  };
  const SimReport cascade_rep = run(true);
  const SimReport deep_rep = run(false);

  EXPECT_LE(cascade_rep.miss_rate, deep_rep.miss_rate)
      << "cascade=" << cascade_rep.miss_rate << " deep=" << deep_rep.miss_rate;
  EXPECT_LE(cascade_rep.p99_response_ms, deep_rep.p99_response_ms);
  EXPECT_LT(cascade_rep.p50_response_ms, deep_rep.p50_response_ms);
}

TEST(ServeSim, CascadeServedOutputsMatchStageReferences) {
  // The compute cascade's serving contract: an escalated request gets
  // exactly the deep TRN's output (prefix resume included), everything else
  // gets exactly the shallow head's — bitwise, through batching.
  nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  util::Rng rng(606);
  nn::init_graph(trunk, rng);
  const std::vector<int> cuts = core::blockwise_cutpoints(trunk);
  core::CascadeTrn cascade(trunk, cuts[cuts.size() / 3], cuts.back(), core::HeadConfig{},
                           rng);
  nn::Network ref_shallow(cascade.shallow().graph());
  nn::Network ref_deep(cascade.deep().graph());

  std::vector<Tensor> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f));
  // Median stage-1 margin of the pool: roughly half the requests escalate —
  // the mixed easy/hard workload.
  std::vector<double> margins;
  for (const Tensor& img : pool) margins.push_back(cascade.stage1(img).margin);
  std::sort(margins.begin(), margins.end());
  const double threshold = margins[margins.size() / 2];

  auto deep_graph = std::make_shared<const nn::Graph>(ref_deep.graph());
  auto shallow_graph = std::make_shared<const nn::Graph>(ref_shallow.graph());
  const auto shallow_curve = batch_curve(shallow_graph);
  LoadConfig load;
  load.requests = 48;
  load.mean_interarrival_ms = shallow_curve(1) / 3.0;
  load.deadline_slack_ms = 8.0 * batch_curve(deep_graph)(1);

  serve::RequestQueue q;
  serve::ServeConfig sc;
  sc.max_batch = 4;
  sc.nominal_deadline_ms = load.deadline_slack_ms;
  serve::ServeCascade sco;
  sco.enabled = true;
  sco.trn = &cascade;
  sco.threshold = threshold;
  sco.p_escalate = 0.5;
  sco.stage2_ms = batch_curve(deep_graph, 0.5);
  serve::BatchServer server({{"cascade", nullptr, shallow_curve, sco}}, q, sc);
  const SimReport rep =
      serve_sim::run_open_loop(server, q, serve_sim::generate_arrivals(load, pool));

  ASSERT_EQ(rep.completions.size(), 48u);
  int escalated = 0, exited = 0;
  for (const serve::Completion& c : rep.completions) {
    const Tensor& input = pool[c.id % pool.size()];
    const Tensor expect = c.escalated ? ref_deep.forward(input) : ref_shallow.forward(input);
    escalated += c.escalated ? 1 : 0;
    exited += c.escalated ? 0 : 1;
    ASSERT_EQ(c.output.shape(), expect.shape());
    ASSERT_EQ(std::memcmp(c.output.data(), expect.data(),
                          sizeof(float) * static_cast<std::size_t>(expect.numel())),
              0)
        << "request " << c.id << (c.escalated ? " (escalated)" : " (early exit)");
  }
  EXPECT_GT(escalated, 0) << "workload never escalated";
  EXPECT_GT(exited, 0) << "workload never exited early";
  EXPECT_EQ(server.stats().escalated, escalated);
}

TEST(ServeSim, ExpectedLatencyBudgetsEscalationMass) {
  const auto g = small_trunk();
  const auto stage1 = batch_curve(g, 0.35);
  const auto stage2 = batch_curve(g, 0.6);
  serve::ServeCascade cascade;
  cascade.enabled = true;
  cascade.threshold = 0.2;
  cascade.p_escalate = 0.3;
  cascade.stage2_ms = stage2;
  const serve::ServeOption opt{"cascade", nullptr, stage1, cascade};
  // ceil(0.3 * 8) = 3 escalations budgeted at batch 8.
  EXPECT_DOUBLE_EQ(serve::expected_latency_ms(opt, 8), stage1(8) + stage2(3));
  EXPECT_DOUBLE_EQ(serve::expected_latency_ms(opt, 1), stage1(1) + stage2(1));
  const serve::ServeOption plain{"deep", nullptr, batch_curve(g), {}};
  EXPECT_DOUBLE_EQ(serve::expected_latency_ms(plain, 8), batch_curve(g)(8));
  serve::ServeCascade never = cascade;
  never.p_escalate = 0.0;
  const serve::ServeOption opt0{"cascade0", nullptr, stage1, never};
  EXPECT_DOUBLE_EQ(serve::expected_latency_ms(opt0, 8), stage1(8));
}

TEST(FleetSim, SameSeedBitIdenticalIncludingPerTenantReport) {
  // The fleet contract at scale: (config, seed) fully determines the
  // completion stream, work stealing, shedding and every per-tenant
  // number. 20k requests over a 3-worker fleet, two tenants.
  const auto g = small_trunk();
  const auto curve = batch_curve(g);
  serve::FleetConfig fc;
  fc.classes = {{"gold", 4.0 * curve(1), 4.0 * curve(1), 3.0},
                {"standard", 8.0 * curve(1), 8.0 * curve(1), 1.0}};
  FleetLoadConfig load;
  load.requests = 20000;
  load.mean_interarrival_ms = curve(8) / 8.0 / 2.5;  // ~2.5 workers' worth
  load.tenants = {{11, 0, 1.0}, {22, 1, 2.0}};

  auto run = [&] {
    serve::Fleet fleet = make_fleet(g, 3, fc, fc.classes[0].deadline_slack_ms);
    return serve_sim::run_fleet_open_loop(
        fleet, serve_sim::generate_fleet_arrivals(load, fc.classes, {}));
  };
  const FleetReport a = run();
  const FleetReport b = run();
  EXPECT_EQ(a.submitted, 20000);
  EXPECT_EQ(a.shed + a.served, 20000);
  ASSERT_EQ(a.tenants.size(), 2u);
  EXPECT_TRUE(serve_sim::fleet_reports_identical(a, b));
}

TEST(FleetSim, BitIdenticalAtOneAndEightThreads) {
  // NETCUT_THREADS parallelizes the kernels inside forward_batch, never the
  // event loop or the steal streams — so a compute-backed fleet run is
  // bit-identical (reports AND output tensors) at any thread count.
  nn::Graph g = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  util::Rng rng(616);
  nn::init_graph(g, rng);
  auto graph_ptr = std::make_shared<const nn::Graph>(g);
  const auto curve = batch_curve(graph_ptr);

  serve::FleetConfig fc;
  fc.classes = {{"standard", 6.0 * curve(1), 6.0 * curve(1), 1.0}};
  FleetLoadConfig load;
  load.requests = 96;
  load.mean_interarrival_ms = curve(8) / 8.0 / 1.5;
  load.tenants = {{1, 0, 1.0}, {2, 0, 1.0}};

  std::vector<Tensor> pool;
  for (int i = 0; i < 5; ++i) pool.push_back(Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f));
  const auto arrivals = serve_sim::generate_fleet_arrivals(load, fc.classes, pool);

  auto run = [&](int threads, std::vector<serve::Completion>& cap) {
    util::set_num_threads(threads);
    std::vector<std::unique_ptr<nn::Network>> nets;
    std::vector<serve::FleetWorker> workers;
    for (std::size_t w = 0; w < 2; ++w) {
      nets.push_back(std::make_unique<nn::Network>(*graph_ptr));
      serve::FleetWorker fw;
      fw.options = {{"trn", nets.back().get(), batch_curve(graph_ptr), {}}};
      fw.serve.nominal_deadline_ms = fc.classes[0].deadline_slack_ms;
      workers.push_back(std::move(fw));
    }
    serve::Fleet fleet(std::move(workers), fc);
    return serve_sim::run_fleet_open_loop(fleet, arrivals, &cap);
  };
  std::vector<serve::Completion> cap1, cap8;
  const FleetReport r1 = run(1, cap1);
  const FleetReport r8 = run(8, cap8);
  util::set_num_threads(util::default_thread_count());

  EXPECT_TRUE(serve_sim::fleet_reports_identical(r1, r8));
  ASSERT_EQ(cap1.size(), cap8.size());
  for (std::size_t i = 0; i < cap1.size(); ++i) {
    ASSERT_EQ(cap1[i].id, cap8[i].id);
    ASSERT_EQ(cap1[i].output.shape(), cap8[i].output.shape());
    if (cap1[i].output.numel() > 0)
      ASSERT_EQ(std::memcmp(cap1[i].output.data(), cap8[i].output.data(),
                            sizeof(float) * static_cast<std::size_t>(cap1[i].output.numel())),
                0)
          << "request " << cap1[i].id;
  }
}

TEST(FleetSim, FourWorkersSustainTripleOneWorkerThroughput) {
  // The scale-out headline, small edition (the bench pins it at fleet
  // scale): offered load ~6x one worker's batched capacity; four replicas
  // absorb ~4x what one does, at no worse an admitted miss rate.
  const auto g = small_trunk();
  const auto curve = batch_curve(g);
  serve::FleetConfig fc;
  fc.classes = {{"standard", 6.0 * curve(1), 6.0 * curve(1), 1.0}};
  FleetLoadConfig load;
  load.requests = 30000;
  load.mean_interarrival_ms = curve(8) / 8.0 / 6.0;  // ~6x one worker
  // Many tenants so rendezvous hashing spreads the stream across shards
  // (per-tenant routing concentrates any single tenant on one home shard).
  load.tenants = {{1, 0, 1.0}, {2, 0, 1.0}, {3, 0, 1.0}, {4, 0, 1.0},
                  {5, 0, 1.0}, {6, 0, 1.0}, {7, 0, 1.0}, {8, 0, 1.0}};

  auto run = [&](std::size_t workers) {
    serve::Fleet fleet = make_fleet(g, workers, fc, fc.classes[0].deadline_slack_ms,
                                    /*tight=*/true, /*fallback_scale=*/1.0);
    return serve_sim::run_fleet_open_loop(
        fleet, serve_sim::generate_fleet_arrivals(load, fc.classes, {}));
  };
  const FleetReport one = run(1);
  const FleetReport four = run(4);
  EXPECT_GE(four.throughput_rps, 3.0 * one.throughput_rps)
      << "four=" << four.throughput_rps << " one=" << one.throughput_rps;
  EXPECT_LE(four.miss_rate, one.miss_rate + 0.01);
  EXPECT_LT(four.shed_rate, one.shed_rate);  // more capacity, less shedding
}

TEST(FleetSim, WorkStealingRecoversUtilizationUnderSkewedRouting) {
  // Same fleet and rate as the scaling test, but the whole stream belongs
  // to ONE tenant — rendezvous hashing pins 100% of the traffic to its
  // home shard, the worst-case routing skew. Without stealing, three of
  // four workers would idle and throughput would collapse to one worker's;
  // with it, dry workers pull the EDF-earliest work over and aggregate
  // throughput stays at the balanced (8-tenant) fleet's level.
  const auto g = small_trunk();
  const auto curve = batch_curve(g);
  serve::FleetConfig fc;
  fc.classes = {{"standard", 6.0 * curve(1), 6.0 * curve(1), 1.0}};
  FleetLoadConfig load;
  load.requests = 30000;
  load.mean_interarrival_ms = curve(8) / 8.0 / 6.0;

  auto run = [&](bool skew) {
    load.tenants.clear();
    if (skew) {
      load.tenants = {{1, 0, 1.0}};
    } else {
      for (std::uint32_t tenant = 1; tenant <= 8; ++tenant)
        load.tenants.push_back({tenant, 0, 1.0});
    }
    serve::Fleet fleet = make_fleet(g, 4, fc, fc.classes[0].deadline_slack_ms,
                                    /*tight=*/true, /*fallback_scale=*/1.0);
    return serve_sim::run_fleet_open_loop(
        fleet, serve_sim::generate_fleet_arrivals(load, fc.classes, {}));
  };
  const FleetReport balanced = run(false);
  const FleetReport skewed = run(true);
  EXPECT_GT(skewed.steals, 1000);  // stealing carried most of three workers' load
  EXPECT_GE(skewed.throughput_rps, 0.8 * balanced.throughput_rps)
      << "skewed=" << skewed.throughput_rps << " balanced=" << balanced.throughput_rps;
  EXPECT_LT(skewed.miss_rate, 0.02);
}

TEST(FleetSim, RendezvousRemapKeepsThroughputNearBalanced) {
  // Satellite contract for tenant-aware routing: crash one of four
  // replicas at attempt 0, so the whole run serves against the remapped
  // 3-shard assignment. At ~2.5x one worker's rate the surviving three
  // have headroom, and because HRW moves ONLY the dead shard's tenants
  // (survivors keep their queues) and stealing levels the coarser 3-way
  // hash, throughput stays >= 0.9x the healthy balanced fleet's.
  const auto g = small_trunk();
  const auto curve = batch_curve(g);
  serve::FleetConfig fc;
  fc.classes = {{"standard", 6.0 * curve(1), 6.0 * curve(1), 1.0}};
  FleetLoadConfig load;
  load.requests = 30000;
  load.mean_interarrival_ms = curve(8) / 8.0 / 2.5;  // ~2.5x one worker
  for (std::uint32_t tenant = 1; tenant <= 8; ++tenant)
    load.tenants.push_back({tenant, 0, 1.0});
  const auto arrivals = serve_sim::generate_fleet_arrivals(load, fc.classes, {});

  const hw::FaultModel crash2(hw::parse_fault_spec("crash=2@0,seed=11"));
  auto run = [&](const hw::FaultModel* faults) {
    serve::Fleet fleet = make_fleet(g, 4, fc, fc.classes[0].deadline_slack_ms,
                                    /*tight=*/true, /*fallback_scale=*/1.0, faults);
    return serve_sim::run_fleet_open_loop(fleet, arrivals);
  };
  const FleetReport balanced = run(nullptr);
  const FleetReport remapped = run(&crash2);
  EXPECT_GE(remapped.failovers, 1);
  EXPECT_GE(remapped.throughput_rps, 0.9 * balanced.throughput_rps)
      << "remapped=" << remapped.throughput_rps << " balanced=" << balanced.throughput_rps;
  // Everything is explicitly accounted through the failover.
  EXPECT_EQ(remapped.shed + remapped.served, remapped.submitted);
}

TEST(FleetSim, AdmissionShedsExplicitlyAndBoundsAdmittedTail) {
  // 2x overload: admission control turns the overflow into explicit
  // Rejected completions instead of a growing queue of silent misses —
  // admitted requests keep their p99 within the SLO class budget.
  const auto g = small_trunk();
  const auto curve = batch_curve(g);
  serve::FleetConfig fc;
  fc.classes = {{"standard", 6.0 * curve(1), 6.0 * curve(1), 1.0}};
  fc.pressure_backlog = 32;
  FleetLoadConfig load;
  load.requests = 40000;
  load.mean_interarrival_ms = curve(8) / 8.0 / 2.0 / 2.0;  // 2x a 2-worker fleet
  load.tenants = {{5, 0, 1.0}};

  serve::Fleet fleet = make_fleet(g, 2, fc, fc.classes[0].deadline_slack_ms,
                                  /*tight=*/true, /*fallback_scale=*/1.0);
  const FleetReport rep = serve_sim::run_fleet_open_loop(
      fleet, serve_sim::generate_fleet_arrivals(load, fc.classes, {}));

  EXPECT_GT(rep.shed, 0);
  EXPECT_NEAR(rep.shed_rate, 0.5, 0.15);  // ~half the 2x overload is shed
  EXPECT_LE(rep.p99_response_ms, fc.classes[0].p99_budget_ms)
      << "admitted p99 " << rep.p99_response_ms << " budget " << fc.classes[0].p99_budget_ms;
  EXPECT_LT(rep.miss_rate, 0.02);
  EXPECT_EQ(rep.shed + rep.served, rep.submitted);  // nothing silently lost
}

TEST(FleetSim, BurstyTenantShedsItsOwnOverflowNotOthers) {
  // Three tenants; tenant 99 goes 8x bursty mid-run, tripling the offered
  // load. Weighted admission makes the burst shed fall on tenant 99 while
  // the well-behaved tenants keep serving within their budgets.
  const auto g = small_trunk();
  const auto curve = batch_curve(g);
  serve::FleetConfig fc;
  fc.classes = {{"gold", 5.0 * curve(1), 5.0 * curve(1), 3.0},
                {"standard", 9.0 * curve(1), 9.0 * curve(1), 1.0}};
  fc.pressure_backlog = 24;
  const double base_rate = curve(8) / 8.0 / 2.0 / 0.8;  // ~80% of a 2-worker fleet
  FleetLoadConfig load;
  load.requests = 60000;
  load.mean_interarrival_ms = base_rate;
  load.tenants = {{99, 1, 1.0}, {1, 0, 1.0}, {2, 1, 1.0}};
  const double span = base_rate * 60000.0;
  constexpr std::size_t kNoBoost = static_cast<std::size_t>(-1);
  load.phases = {{span * 0.3, 1.0, kNoBoost, 1.0},
                 {span * 0.2, 3.0, 0, 8.0},  // tenant 99 bursts 8x, total ~3x
                 {span * 0.5, 1.0, kNoBoost, 1.0}};

  serve::Fleet fleet = make_fleet(g, 2, fc, fc.classes[0].deadline_slack_ms, /*tight=*/true);
  const FleetReport rep = serve_sim::run_fleet_open_loop(
      fleet, serve_sim::generate_fleet_arrivals(load, fc.classes, {}));

  ASSERT_EQ(rep.tenants.size(), 3u);
  const serve_sim::TenantReport& bursty = rep.tenants.at(99);
  const serve_sim::TenantReport& gold = rep.tenants.at(1);
  const serve_sim::TenantReport& standard = rep.tenants.at(2);
  // The burst is shed from the bursty tenant, explicitly.
  EXPECT_GT(bursty.shed_rate, 5.0 * gold.shed_rate);
  EXPECT_GT(bursty.shed_rate, 0.1);
  // The others keep their service level.
  EXPECT_LT(gold.shed_rate, 0.05);
  EXPECT_LT(gold.miss_rate, 0.02);
  EXPECT_LE(gold.p99_response_ms, fc.classes[0].p99_budget_ms);
  EXPECT_LT(standard.miss_rate, 0.05);
}

TEST(Fleet, ValidatesConfigAndSloReferences) {
  const auto g = small_trunk();
  EXPECT_THROW(serve::Fleet({}, serve::FleetConfig{}), std::invalid_argument);
  serve::FleetConfig no_classes;
  no_classes.classes.clear();
  std::vector<serve::FleetWorker> one;
  serve::FleetWorker fw;
  fw.options = {{"trn", nullptr, batch_curve(g), {}}};
  one.push_back(fw);
  EXPECT_THROW(serve::Fleet(std::move(one), no_classes), std::invalid_argument);

  std::vector<serve::FleetWorker> two;
  two.push_back(fw);
  serve::Fleet fleet(std::move(two), serve::FleetConfig{});
  serve::Request r = req(0, 0.0, 1.0);
  r.slo = 7;  // out of range
  EXPECT_THROW(fleet.submit(r, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace netcut
