// Deadline-aware batched serving of TRNs — the NetCut result put behind a
// request queue.
//
// Two TRNs of the same base network form a miniature Pareto front: the
// preferred (late-cut, more accurate) network and a faster early-cut
// fallback. Concurrent clients push requests with deadlines into a shared
// queue; the batch server packs earliest-deadline batches that still meet
// the head's deadline, runs them through the true batch-N forward path, and
// charges service time from the device model's batched roofline. When the
// offered load outruns the preferred TRN, the shared miss-rate watchdog
// falls back to the faster cut — the serving-time counterpart of the
// prosthetic control loop's deadline fallback.
//
// The second half scales the same machinery out to a heterogeneous
// three-replica serve::Fleet — a full-speed replica next to slower siblings
// (hw::scaled_device) — under a two-tenant overload with one tenant going
// bursty: admission control sheds the burst explicitly (rejections, never
// silent misses) and the per-tenant report shows the bursty tenant paying
// for its own overflow.
//
// Everything runs on the deterministic simulated clock from
// src/serve/sim.hpp, so this demo prints the same numbers on every run.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/cascade.hpp"
#include "core/trn.hpp"
#include "hw/device.hpp"
#include "hw/faults.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "serve/fleet.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve/sim.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "zoo/zoo.hpp"

using namespace netcut;

namespace {

/// Int8 device curve over the demo's batch cap (8).
std::function<double(int)> batch_curve(const nn::Graph& graph,
                                       const hw::DeviceModel& device = hw::DeviceModel(),
                                       int resume = 0) {
  return device.batch_curve(graph, hw::Precision::kInt8, true, 8, resume);
}

}  // namespace

int main() {
  // A late-cut TRN (preferred) and an early-cut TRN (fast fallback) of one
  // base network, both with real weights and a transfer head.
  const int res = 32;
  util::Rng rng(99);
  nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV2_100, res);
  nn::init_graph(trunk, rng);
  const std::vector<int> cuts = core::blockwise_cutpoints(trunk);

  const int late_cut = cuts[cuts.size() - 1];
  const int early_cut = cuts[cuts.size() / 4];
  const nn::Graph preferred_graph = core::build_trn(trunk, late_cut, core::HeadConfig{}, rng);
  const nn::Graph fallback_graph = core::build_trn(trunk, early_cut, core::HeadConfig{}, rng);
  nn::Network preferred(preferred_graph);
  nn::Network fallback(fallback_graph);

  const auto pref_curve = batch_curve(preferred_graph);
  const auto fall_curve = batch_curve(fallback_graph);
  std::printf("Pareto front (device model, int8+fusion):\n");
  std::printf("  preferred %-22s b1 %.4f ms  b8 %.4f ms\n",
              core::trn_name("MobileNetV2-1.00", trunk, late_cut).c_str(), pref_curve(1),
              pref_curve(8));
  std::printf("  fallback  %-22s b1 %.4f ms  b8 %.4f ms\n",
              core::trn_name("MobileNetV2-1.00", trunk, early_cut).c_str(), fall_curve(1),
              fall_curve(8));

  // Concurrent clients: four threads push their requests into the shared
  // queue (the queue is the thread-safe boundary of the serving layer);
  // arrival stamps interleave the clients on one simulated timeline.
  std::vector<tensor::Tensor> pool;
  for (int i = 0; i < 8; ++i)
    pool.push_back(tensor::Tensor::randn(tensor::Shape::chw(3, res, res), rng, 0.5f));

  serve_sim::LoadConfig load;
  load.requests = 240;
  load.mean_interarrival_ms = pref_curve(8) / 8.0 * 0.7;  // beyond batched capacity
  load.deadline_slack_ms = 3.0 * pref_curve(1);
  const std::vector<serve::Request> arrivals = serve_sim::generate_arrivals(load, pool);

  serve::RequestQueue warmup_queue;
  {
    constexpr int kClients = 4;
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c); i < arrivals.size(); i += kClients)
          warmup_queue.push(arrivals[i]);
      });
    for (std::thread& t : clients) t.join();
    std::printf("\n%d clients enqueued %zu requests concurrently\n", kClients,
                warmup_queue.size());
  }

  // The measured run uses the open-loop event loop so waiting time is
  // modeled faithfully (the concurrent enqueue above demonstrates the
  // thread-safe boundary; the simulation owns the timeline).
  serve::RequestQueue queue;
  serve::ServeConfig sc;
  sc.max_batch = 8;
  sc.nominal_deadline_ms = load.deadline_slack_ms;
  sc.watchdog.window = 16;
  serve::BatchServer server(
      {{"preferred", &preferred, pref_curve, {}}, {"fallback", &fallback, fall_curve, {}}},
      queue, sc);
  const serve_sim::SimReport rep = serve_sim::run_open_loop(server, queue, arrivals);

  std::printf("\nserved %zu requests in %.2f simulated ms\n", rep.completions.size(),
              rep.makespan_ms);
  std::printf("  throughput %.0f req/s, p50 %.3f ms, p99 %.3f ms, miss rate %.1f%%, "
              "mean batch %.2f\n",
              rep.throughput_rps, rep.p50_response_ms, rep.p99_response_ms,
              100.0 * rep.miss_rate, rep.mean_batch);
  for (const serve::ServeSwitch& s : server.stats().switches)
    std::printf("  watchdog: batch %lld, option %zu -> %zu (window miss rate %.0f%%)\n",
                static_cast<long long>(s.batch_index), s.from, s.to,
                100.0 * s.window_miss_rate);
  if (server.stats().switches.empty())
    std::printf("  watchdog: never intervened\n");
  std::printf("  final option: %zu (%s)\n", server.current_option(),
              server.current_option() == 0 ? "preferred" : "fallback");

  // -------------------------------------------------------------------------
  // Cascade serving: one compute option running the input-adaptive cascade.
  // Every request pays the early-cut stage; only low-margin requests
  // escalate to the late cut, resuming from the shared trunk activation.
  // Batch formation budgets the expected escalation mass (p_escalate), so
  // admission stays honest about the second stage it may have to pay. The
  // load is deadline-feasible (batches stay small); the same arrivals run
  // through an all-deep static server for the head-to-head.
  // -------------------------------------------------------------------------
  core::CascadeTrn cascade(trunk, early_cut, late_cut, core::HeadConfig{}, rng);
  const int resume = cascade.resume_node();
  const auto stage2_curve = batch_curve(preferred_graph, hw::DeviceModel(), resume);

  // Calibrate on the request pool itself — the demo-scale stand-in for the
  // explorer's held-out calibration split. The threshold is the pool's
  // lower-quartile stage-1 margin, so roughly a quarter of the requests pay
  // for the deep stage and the rest exit early.
  std::vector<double> margins;
  for (const tensor::Tensor& img : pool) margins.push_back(cascade.stage1(img).margin);
  std::sort(margins.begin(), margins.end());
  const double threshold = margins[margins.size() / 4];
  int pool_wishes = 0;
  for (const double m : margins)
    if (m < threshold) ++pool_wishes;
  const double p_escalate =
      static_cast<double>(pool_wishes) / static_cast<double>(pool.size());

  serve_sim::LoadConfig cascade_load;
  cascade_load.requests = 240;
  cascade_load.mean_interarrival_ms = 1.2 * pref_curve(1);  // feasible even all-deep
  cascade_load.deadline_slack_ms = 3.0 * pref_curve(1);
  const std::vector<serve::Request> cascade_arrivals =
      serve_sim::generate_arrivals(cascade_load, pool);

  serve::ServeConfig csc = sc;
  csc.nominal_deadline_ms = cascade_load.deadline_slack_ms;
  serve::ServeCascade sco;
  sco.enabled = true;
  sco.trn = &cascade;
  sco.threshold = threshold;
  sco.p_escalate = p_escalate;
  sco.stage2_ms = stage2_curve;
  serve::RequestQueue cascade_queue;
  serve::BatchServer cascade_server(
      {{"cascade", nullptr, fall_curve, sco}}, cascade_queue, csc);
  const serve_sim::SimReport crep =
      serve_sim::run_open_loop(cascade_server, cascade_queue, cascade_arrivals);

  nn::Network deep_static(preferred_graph);
  serve::RequestQueue deep_queue;
  serve::BatchServer deep_server(
      {{"all-deep", &deep_static, pref_curve, {}}}, deep_queue, csc);
  const serve_sim::SimReport drep =
      serve_sim::run_open_loop(deep_server, deep_queue, cascade_arrivals);

  const auto mean_response = [](const serve_sim::SimReport& r) {
    double sum = 0.0;
    for (const serve::Completion& c : r.completions) sum += c.finish_ms - c.arrival_ms;
    return sum / static_cast<double>(r.completions.size());
  };
  std::printf("\ncascade serving (%s stage 1, escalate below margin %.2f, "
              "calibrated p %.2f):\n",
              core::trn_name("MobileNetV2-1.00", trunk, early_cut).c_str(), threshold,
              p_escalate);
  std::printf("  stage 2 resumes at node %d (%.4f ms b1, vs %.4f ms for the deep TRN "
              "from scratch)\n",
              resume, stage2_curve(1), pref_curve(1));
  std::printf("  cascade:  mean %.3f ms, p50 %.3f ms, p99 %.3f ms, miss %.1f%%, "
              "escalated %lld of %zu\n",
              mean_response(crep), crep.p50_response_ms, crep.p99_response_ms,
              100.0 * crep.miss_rate,
              static_cast<long long>(cascade_server.stats().escalated),
              crep.completions.size());
  std::printf("  all-deep: mean %.3f ms, p50 %.3f ms, p99 %.3f ms, miss %.1f%% "
              "(same arrivals)\n",
              mean_response(drep), drep.p50_response_ms, drep.p99_response_ms,
              100.0 * drep.miss_rate);

  // -------------------------------------------------------------------------
  // Heterogeneous fleet: three replicas of the same Pareto front on devices
  // of different speed, behind the sharded queue with work stealing and
  // admission control.
  // -------------------------------------------------------------------------
  struct ReplicaSpec {
    const char* name;
    double perf_factor;
  };
  const std::vector<ReplicaSpec> replicas = {
      {"replica0/full", 1.0}, {"replica1/mid", 0.6}, {"replica2/slow", 0.35}};

  // Each replica owns its Network instances (forward state is per-server)
  // and its own latency curves from its scaled device.
  std::vector<std::unique_ptr<nn::Network>> fleet_nets;
  std::vector<serve::FleetWorker> specs;
  std::vector<std::function<double(int)>> pref_curves;  // per-replica, reused below
  std::printf("\nheterogeneous fleet (scaled devices, preferred TRN):\n");
  for (std::size_t w = 0; w < replicas.size(); ++w) {
    const hw::DeviceModel device(
        hw::scaled_device({}, replicas[w].perf_factor, replicas[w].name));
    const auto pref = batch_curve(preferred_graph, device);
    const auto fall = batch_curve(fallback_graph, device);
    std::printf("  %-14s %.2fx: preferred b1 %.4f ms b8 %.4f ms, fallback b1 %.4f ms\n",
                replicas[w].name, replicas[w].perf_factor, pref(1), pref(8), fall(1));
    fleet_nets.push_back(std::make_unique<nn::Network>(preferred_graph));
    fleet_nets.push_back(std::make_unique<nn::Network>(fallback_graph));
    serve::FleetWorker fw;
    fw.name = replicas[w].name;
    fw.options = {{"preferred", fleet_nets[2 * w].get(), pref, {}},
                  {"fallback", fleet_nets[2 * w + 1].get(), fall, {}}};
    fw.serve.max_batch = 8;
    fw.serve.nominal_deadline_ms = 4.0 * pref_curve(1);
    fw.serve.seed = util::derive_seed(7070, "demo/fleet/worker/" + std::to_string(w));
    fw.serve.watchdog.window = 16;
    specs.push_back(std::move(fw));
    pref_curves.push_back(pref);
  }

  serve::FleetConfig fc;
  fc.classes = {{"gold", 4.0 * pref_curve(1), 4.0 * pref_curve(1), 3.0},
                {"standard", 8.0 * pref_curve(1), 8.0 * pref_curve(1), 1.0}};
  fc.pressure_backlog = 24;
  serve::Fleet fleet(std::move(specs), fc);

  // Two steady tenants plus tenant 99, which bursts to several times its
  // share mid-run — an overload squarely at the admission controller.
  serve_sim::FleetLoadConfig fleet_load;
  fleet_load.requests = 2400;
  // Size the base load against the *preferred* option's aggregate batched
  // rate (the service rate the fleet actually runs at while accuracy
  // allows), not the fallback's: ~80% preferred-load at the base rate, so
  // only the mid-run burst forces shedding and fallback switches.
  double capacity = 0.0;  // aggregate amortized batched service rate, req/ms
  for (const auto& pref : pref_curves) capacity += 8.0 / pref(8);
  fleet_load.mean_interarrival_ms = 1.0 / (0.8 * capacity);
  fleet_load.tenants = {{99, 1, 1.0}, {1, 0, 1.0}, {2, 1, 1.0}};
  {
    constexpr std::size_t kNoBoost = static_cast<std::size_t>(-1);
    const double span =
        fleet_load.mean_interarrival_ms * static_cast<double>(fleet_load.requests);
    fleet_load.phases = {{span * 0.3, 1.0, kNoBoost, 1.0},
                         {span * 0.2, 2.5, 0, 8.0},  // tenant 99 bursts past capacity
                         {span * 0.5, 1.0, kNoBoost, 1.0}};
  }
  const auto fleet_arrivals = serve_sim::generate_fleet_arrivals(fleet_load, fc.classes, pool);
  const serve_sim::FleetReport frep = serve_sim::run_fleet_open_loop(fleet, fleet_arrivals);

  std::printf("\nfleet served %lld of %lld requests in %.2f simulated ms "
              "(burst at ~2x capacity mid-run)\n",
              static_cast<long long>(frep.served), static_cast<long long>(frep.submitted),
              frep.makespan_ms);
  std::printf("  throughput %.0f req/s, p50 %.3f ms, p99 %.3f ms, mean batch %.2f, "
              "steals %lld\n",
              frep.throughput_rps, frep.p50_response_ms, frep.p99_response_ms,
              frep.mean_batch, static_cast<long long>(frep.steals));
  std::printf("  shed %lld (%.1f%%) as explicit rejections, missed %lld\n",
              static_cast<long long>(frep.shed), 100.0 * frep.shed_rate,
              static_cast<long long>(frep.missed));
  for (std::size_t w = 0; w < fleet.workers(); ++w)
    std::printf("  %-14s ran %lld batches\n", fleet.worker_name(w).c_str(),
                static_cast<long long>(fleet.worker(w).stats().batches));
  for (const auto& [tenant, tr] : frep.tenants)
    std::printf("  tenant %-3u (%s)%s: submitted %lld, shed %5.1f%%, miss %.2f%%, "
                "p99 %.3f ms (budget %.3f ms)\n",
                tenant, fc.classes[tr.slo].name.c_str(), tenant == 99 ? " [bursty]" : "",
                static_cast<long long>(tr.submitted), 100.0 * tr.shed_rate,
                100.0 * tr.miss_rate, tr.p99_response_ms, fc.classes[tr.slo].p99_budget_ms);

  // -------------------------------------------------------------------------
  // Failover: four homogeneous replicas, replica 2 fail-stops mid-run via a
  // crash= worker clause. Heartbeat deadlines (on the service timescale)
  // declare it Down, its shard is drained and the orphans are re-queued onto
  // the survivors — explicit outcomes only, no silent misses.
  // -------------------------------------------------------------------------
  const char* kill_spec = "crash=2@200,seed=17";
  const hw::FaultModel kill_model(hw::parse_fault_spec(kill_spec));

  std::vector<serve::FleetWorker> fo_specs;
  for (std::size_t w = 0; w < 4; ++w) {
    serve::FleetWorker fw;
    fw.name = "replica" + std::to_string(w);
    // Timing-only options: the failover act is about the control plane, so
    // it skips the batch forwards and runs purely on the latency curves.
    fw.options = {{"preferred", nullptr, pref_curve, {}},
                  {"fallback", nullptr, fall_curve, {}}};
    fw.serve.max_batch = 8;
    fw.serve.nominal_deadline_ms = 8.0 * pref_curve(1);
    fw.serve.seed = util::derive_seed(7070, "demo/failover/worker/" + std::to_string(w));
    fw.serve.watchdog.window = 16;
    fo_specs.push_back(std::move(fw));
  }
  serve::FleetConfig fo_cfg;
  fo_cfg.classes = {{"standard", 8.0 * pref_curve(1), 8.0 * pref_curve(1), 1.0}};
  fo_cfg.faults = &kill_model;
  // Heartbeat deadlines a few batch times out — long silences on a fleet
  // this fast would let the stealers drain the dying shard before the
  // detector ever fires.
  fo_cfg.health.suspect_after_ms = 2.0 * pref_curve(8);
  fo_cfg.health.down_after_ms = 5.0 * pref_curve(8);
  serve::Fleet fo_fleet(std::move(fo_specs), fo_cfg);

  serve_sim::FleetLoadConfig fo_load;
  fo_load.requests = 12000;
  fo_load.mean_interarrival_ms = pref_curve(8) / 8.0 / 3.2;  // ~80% of 4 replicas
  for (std::uint32_t tenant = 1; tenant <= 8; ++tenant)
    fo_load.tenants.push_back({tenant, 0, 1.0});
  const auto fo_arrivals = serve_sim::generate_fleet_arrivals(fo_load, fo_cfg.classes, {});
  std::vector<serve::Completion> fo_completions;
  const serve_sim::FleetReport fo_rep =
      serve_sim::run_fleet_open_loop(fo_fleet, fo_arrivals, &fo_completions);

  const serve::ReplicaHealth dead = fo_fleet.worker_health(2);
  std::printf("\nfailover act: NETCUT_FAULTS=\"%s\" kills replica2 mid-run\n", kill_spec);
  std::printf("  timeline: last heartbeat %.3f ms -> declared %s at %.3f ms "
              "(detection latency %.3f ms)\n",
              dead.last_progress_ms, serve::replica_state_name(dead.state),
              dead.detected_ms, dead.detected_ms - dead.last_progress_ms);
  std::printf("  drain: %lld orphans re-queued onto survivors, %lld shed at "
              "re-admission (of %lld shed total)\n",
              static_cast<long long>(fo_rep.requeued),
              static_cast<long long>(fo_rep.drain_shed),
              static_cast<long long>(fo_rep.shed));
  // Post-failover tail: admitted responses that finished after detection.
  std::vector<double> post;
  for (const serve::Completion& c : fo_completions)
    if (!c.rejected && c.finish_ms > dead.detected_ms)
      post.push_back(c.finish_ms - c.arrival_ms);
  std::sort(post.begin(), post.end());
  std::printf("  post-failover: p99 %.3f ms vs budget %.3f ms over %zu completions, "
              "miss rate %.2f%%\n",
              serve_sim::quantile(post, 0.99), fo_cfg.classes[0].p99_budget_ms, post.size(),
              100.0 * fo_rep.miss_rate);
  for (std::size_t w = 0; w < fo_fleet.workers(); ++w) {
    const auto& sw = fo_fleet.worker(w).stats().switches;
    std::printf("  %-9s %-9s %4lld batches, %zu watchdog switch%s%s\n",
                fo_fleet.worker_name(w).c_str(),
                serve::replica_state_name(fo_fleet.worker_state(w)),
                static_cast<long long>(fo_fleet.worker(w).stats().batches), sw.size(),
                sw.size() == 1 ? "" : "es",
                w == 2 ? "  <- killed" : "");
  }
  std::printf("  conservation: %lld submitted = %lld served + %lld shed (explicit), "
              "%lld failover\n",
              static_cast<long long>(fo_rep.submitted),
              static_cast<long long>(fo_rep.served), static_cast<long long>(fo_rep.shed),
              static_cast<long long>(fo_rep.failovers));
  return 0;
}
