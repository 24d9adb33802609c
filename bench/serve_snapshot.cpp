// Serving-layer snapshot (BENCH_serve.json): batched vs single-request
// service and the fleet section — multi-worker scaling, admission under
// overload and per-tenant SLOs — all under the deterministic open-loop load
// simulation shared with tests/test_serve.cpp (src/serve/sim.hpp).
//
//   ./build/bench/serve_snapshot [--json BENCH_serve.json]
//
// Every simulated number is a pure function of (config, seed): the harness
// runs each configuration twice with the same seed and refuses to write the
// snapshot (exit 1) unless the two runs are bit-identical (fleet rows
// compare FNV-1a digests of the full completion stream). The headline
// claims the snapshot exists to pin down:
//   * batch cap 8 sustains >= 3x the single-request throughput under an
//     offered load ~5x the single-request service rate, at no worse a miss
//     rate or p99 than the single-request baseline;
//   * a 4-worker fleet sustains >= 3x a 1-worker fleet's aggregate
//     throughput at an equal admitted miss rate (1/2/4/8 scaling curve);
//   * under ~2x overload with a bursty tenant, admission sheds explicitly
//     (never a silent miss) and admitted p99 stays within each SLO class
//     budget — the burst's shedding lands on the bursty tenant.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/trn.hpp"
#include "hw/device.hpp"
#include "hw/faults.hpp"
#include "serve/fleet.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve/sim.hpp"
#include "util/rng.hpp"
#include "zoo/zoo.hpp"

namespace {

using namespace netcut;

struct ServeRun {
  std::string label;
  int max_batch = 1;
  serve_sim::SimReport report;
  bool reproducible = false;
};

/// Int8 device curve over the largest batch any row serves (8).
std::function<double(int)> batch_curve(const nn::Graph& graph, int resume = 0) {
  return hw::DeviceModel().batch_curve(graph, hw::Precision::kInt8, true, 8, resume);
}

ServeRun run_config(const nn::Graph& graph, const serve_sim::LoadConfig& load,
                    const std::string& label, int max_batch) {
  auto once = [&] {
    serve::RequestQueue queue;
    serve::ServeConfig sc;
    sc.max_batch = max_batch;
    sc.nominal_deadline_ms = load.deadline_slack_ms;
    serve::BatchServer server({{"trn", nullptr, batch_curve(graph), {}}}, queue, sc);
    return serve_sim::run_open_loop(server, queue, serve_sim::generate_arrivals(load, {}));
  };
  ServeRun r;
  r.label = label;
  r.max_batch = max_batch;
  r.report = once();
  r.reproducible = serve_sim::reports_identical(r.report, once());
  return r;
}

void print_run(const ServeRun& r) {
  std::printf("%-16s batch<=%d: %8.1f req/s, p50 %7.3f ms, p99 %8.3f ms, "
              "miss %5.1f%%, mean batch %.2f, reproducible=%s\n",
              r.label.c_str(), r.max_batch, r.report.throughput_rps,
              r.report.p50_response_ms, r.report.p99_response_ms,
              100.0 * r.report.miss_rate, r.report.mean_batch,
              r.reproducible ? "yes" : "NO");
}

void emit_json(std::ostream& out, const ServeRun& r, bool last) {
  out << "    {\"label\": \"" << r.label << "\", \"max_batch\": " << r.max_batch
      << ", \"throughput_rps\": " << r.report.throughput_rps
      << ", \"p50_response_ms\": " << r.report.p50_response_ms
      << ", \"p99_response_ms\": " << r.report.p99_response_ms
      << ", \"miss_rate\": " << r.report.miss_rate
      << ", \"mean_batch\": " << r.report.mean_batch
      << ", \"batches\": " << r.report.batches
      << ", \"reproducible\": " << (r.reproducible ? "true" : "false") << "}"
      << (last ? "" : ",") << "\n";
}

// ---------------------------------------------------------------------------
// Fleet section.
// ---------------------------------------------------------------------------

struct FleetRun {
  std::string label;
  std::size_t workers = 1;
  serve_sim::FleetReport report;
  bool reproducible = false;
};

/// Homogeneous timing-only fleet: one TRN per replica, faults pinned off
/// (these rows are capacity measurements), per-worker derived serve seeds.
serve::Fleet make_fleet(const nn::Graph& graph, std::size_t n, serve::FleetConfig cfg,
                        double nominal_deadline_ms) {
  const auto curve = batch_curve(graph);
  std::vector<serve::FleetWorker> workers;
  for (std::size_t w = 0; w < n; ++w) {
    serve::FleetWorker fw;
    fw.name = "w" + std::to_string(w);
    fw.options = {{"trn", nullptr, curve, {}}};
    fw.serve.max_batch = 8;
    fw.serve.nominal_deadline_ms = nominal_deadline_ms;
    fw.serve.seed = util::derive_seed(7070, "bench/fleet/worker/" + std::to_string(w));
    fw.serve.faults = &hw::FaultModel::disabled();
    workers.push_back(std::move(fw));
  }
  return serve::Fleet(std::move(workers), std::move(cfg));
}

FleetRun run_fleet_config(const nn::Graph& graph, const serve::FleetConfig& fc,
                          const serve_sim::FleetLoadConfig& load, const std::string& label,
                          std::size_t workers) {
  const auto arrivals = serve_sim::generate_fleet_arrivals(load, fc.classes, {});
  auto once = [&] {
    serve::Fleet fleet = make_fleet(graph, workers, fc, fc.classes[0].deadline_slack_ms);
    return serve_sim::run_fleet_open_loop(fleet, arrivals);
  };
  FleetRun r;
  r.label = label;
  r.workers = workers;
  r.report = once();
  r.reproducible = serve_sim::fleet_reports_identical(r.report, once());
  return r;
}

void print_fleet_run(const FleetRun& r) {
  std::printf("%-16s workers=%zu: %9.1f req/s, p99 %7.3f ms, miss %5.2f%%, "
              "shed %5.1f%%, steals %lld, mean batch %.2f, reproducible=%s\n",
              r.label.c_str(), r.workers, r.report.throughput_rps, r.report.p99_response_ms,
              100.0 * r.report.miss_rate, 100.0 * r.report.shed_rate,
              static_cast<long long>(r.report.steals), r.report.mean_batch,
              r.reproducible ? "yes" : "NO");
}

void emit_fleet_json(std::ostream& out, const FleetRun& r, bool last) {
  out << "      {\"label\": \"" << r.label << "\", \"workers\": " << r.workers
      << ", \"requests\": " << r.report.submitted
      << ", \"throughput_rps\": " << r.report.throughput_rps
      << ", \"p50_response_ms\": " << r.report.p50_response_ms
      << ", \"p99_response_ms\": " << r.report.p99_response_ms
      << ", \"miss_rate\": " << r.report.miss_rate
      << ", \"shed_rate\": " << r.report.shed_rate
      << ", \"steals\": " << r.report.steals << ", \"mean_batch\": " << r.report.mean_batch
      << ", \"digest\": " << r.report.digest
      << ", \"reproducible\": " << (r.reproducible ? "true" : "false") << "}"
      << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strncmp(argv[i], "--json=", 7) == 0)
      json_path = argv[i] + 7;
  }

  const nn::Graph graph = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  const auto curve = batch_curve(graph);
  std::printf("device batch curve (ms): b1 %.4f  b2 %.4f  b4 %.4f  b8 %.4f\n", curve(1),
              curve(2), curve(4), curve(8));

  serve_sim::LoadConfig load;
  load.requests = 2000;
  load.mean_interarrival_ms = curve(1) / 5.0;  // ~5x single-request capacity
  load.deadline_slack_ms = 6.0 * curve(1);

  std::vector<ServeRun> runs;
  runs.push_back(run_config(graph, load, "single", 1));
  runs.push_back(run_config(graph, load, "batched", 8));
  for (const ServeRun& r : runs) print_run(r);

  const ServeRun& single = runs[0];
  const ServeRun& batched = runs[1];
  const double ratio = single.report.throughput_rps > 0
                           ? batched.report.throughput_rps / single.report.throughput_rps
                           : 0.0;
  std::printf("throughput ratio (batched / single): %.2fx\n\n", ratio);

  bool ok = true;
  for (const ServeRun& r : runs)
    if (!r.reproducible) {
      std::fprintf(stderr, "serve_snapshot: '%s' not bit-identical across same-seed runs\n",
                   r.label.c_str());
      ok = false;
    }
  if (ratio < 3.0) {
    std::fprintf(stderr, "serve_snapshot: throughput ratio %.2fx below the 3x bar\n", ratio);
    ok = false;
  }
  if (batched.report.miss_rate > single.report.miss_rate) {
    std::fprintf(stderr, "serve_snapshot: batched miss rate exceeds the single baseline\n");
    ok = false;
  }

  // --- fleet scaling curve: 1 -> 8 workers ------------------------------
  serve::FleetConfig scale_fc;
  scale_fc.classes = {{"standard", 6.0 * curve(1), 6.0 * curve(1), 1.0}};
  serve_sim::FleetLoadConfig scale_load;
  scale_load.requests = 500000;
  scale_load.mean_interarrival_ms = curve(8) / 8.0 / 6.0;  // ~6x one worker's capacity
  scale_load.tenants = {{1, 0, 1.0}};

  std::vector<FleetRun> fleet_runs;
  for (const std::size_t w : {1u, 2u, 4u, 8u})
    fleet_runs.push_back(run_fleet_config(graph, scale_fc, scale_load,
                                          "fleet-" + std::to_string(w) + "w", w));
  for (const FleetRun& r : fleet_runs) print_fleet_run(r);

  const double one_tput = fleet_runs[0].report.throughput_rps;
  const double ratio_4v1 = one_tput > 0 ? fleet_runs[2].report.throughput_rps / one_tput : 0.0;
  std::printf("fleet throughput ratio (4 workers / 1 worker): %.2fx\n\n", ratio_4v1);

  for (const FleetRun& r : fleet_runs)
    if (!r.reproducible) {
      std::fprintf(stderr, "serve_snapshot: '%s' not bit-identical across same-seed runs\n",
                   r.label.c_str());
      ok = false;
    }
  if (ratio_4v1 < 3.0) {
    std::fprintf(stderr, "serve_snapshot: fleet 4v1 ratio %.2fx below the 3x bar\n", ratio_4v1);
    ok = false;
  }
  if (fleet_runs[2].report.miss_rate > fleet_runs[0].report.miss_rate + 0.005) {
    std::fprintf(stderr, "serve_snapshot: 4-worker miss rate exceeds the 1-worker baseline\n");
    ok = false;
  }

  // --- admission under 2x overload with a bursty tenant -----------------
  serve::FleetConfig tenant_fc;
  tenant_fc.classes = {{"gold", 5.0 * curve(1), 5.0 * curve(1), 3.0},
                       {"standard", 9.0 * curve(1), 9.0 * curve(1), 1.0}};
  tenant_fc.pressure_backlog = 24;
  serve_sim::FleetLoadConfig tenant_load;
  tenant_load.requests = 500000;
  tenant_load.mean_interarrival_ms = curve(8) / 8.0 / 2.0 / 0.8;  // 80% of 2 workers
  tenant_load.tenants = {{99, 1, 1.0}, {1, 0, 1.0}, {2, 1, 1.0}};
  {
    constexpr std::size_t kNoBoost = static_cast<std::size_t>(-1);
    const double span =
        tenant_load.mean_interarrival_ms * static_cast<double>(tenant_load.requests);
    tenant_load.phases = {{span * 0.3, 1.0, kNoBoost, 1.0},
                          {span * 0.2, 2.5, 0, 8.0},  // tenant 99 bursts: ~2x fleet capacity
                          {span * 0.5, 1.0, kNoBoost, 1.0}};
  }
  const FleetRun overload =
      run_fleet_config(graph, tenant_fc, tenant_load, "fleet-overload", 2);
  print_fleet_run(overload);
  for (const auto& [tenant, tr] : overload.report.tenants)
    std::printf("  tenant %-3u (%s): shed %5.1f%%, miss %5.2f%%, p99 %.3f ms "
                "(budget %.3f ms)\n",
                tenant, tenant_fc.classes[tr.slo].name.c_str(), 100.0 * tr.shed_rate,
                100.0 * tr.miss_rate, tr.p99_response_ms,
                tenant_fc.classes[tr.slo].p99_budget_ms);
  std::printf("\n");

  if (!overload.reproducible) {
    std::fprintf(stderr, "serve_snapshot: overload row not bit-identical\n");
    ok = false;
  }
  if (overload.report.shed <= 0) {
    std::fprintf(stderr, "serve_snapshot: overload run shed nothing — not an overload\n");
    ok = false;
  }
  for (const auto& [tenant, tr] : overload.report.tenants) {
    if (tr.served > 0 && tr.p99_response_ms > tenant_fc.classes[tr.slo].p99_budget_ms) {
      std::fprintf(stderr,
                   "serve_snapshot: tenant %u admitted p99 %.3f ms over its %.3f ms budget\n",
                   tenant, tr.p99_response_ms, tenant_fc.classes[tr.slo].p99_budget_ms);
      ok = false;
    }
  }

  // --- failover: 4 workers, one fail-stops mid-run ----------------------
  // The degraded-serving claim: after 1 of 4 replicas crashes at ~T/2, the
  // survivors (with the orphaned shard re-queued onto them) sustain >= 0.7x
  // of a clean 3-worker fleet's throughput under the same offered load, and
  // admitted p99 stays inside the SLO budget. Gated on the same two-run
  // digest bit-identity as every other fleet row.
  constexpr std::size_t kVictim = 1;
  const hw::FaultModel crash_model(hw::parse_fault_spec("crash=1@3000,seed=13"));
  serve::FleetConfig fo_fc;
  fo_fc.classes = {{"standard", 8.0 * curve(1), 8.0 * curve(1), 1.0}};
  // Heartbeat deadlines a few batch times out (the service timescale of
  // this simulated device) so detection fires while the dying shard still
  // holds orphans.
  fo_fc.health.suspect_after_ms = 2.0 * curve(8);
  fo_fc.health.down_after_ms = 5.0 * curve(8);

  serve_sim::FleetLoadConfig fo_load;
  fo_load.requests = 200000;
  fo_load.mean_interarrival_ms = curve(8) / 8.0 / 3.2;  // 80% of 4 workers
  {
    // Skew extra traffic onto the victim's shard (probed through the same
    // seeded rendezvous routing the real run uses) so the drain actually
    // carries orphans.
    const serve::Fleet probe = make_fleet(graph, 4, fo_fc, fo_fc.classes[0].deadline_slack_ms);
    for (std::uint32_t tenant = 1; tenant <= 8; ++tenant)
      fo_load.tenants.push_back({tenant, 0, probe.route(tenant) == kVictim ? 3.0 : 1.0});
  }
  const auto fo_arrivals = serve_sim::generate_fleet_arrivals(fo_load, fo_fc.classes, {});

  serve::ReplicaHealth victim;
  auto fo_once = [&](std::vector<serve::Completion>* capture) {
    serve::FleetConfig cfg = fo_fc;
    cfg.faults = &crash_model;
    serve::Fleet fleet = make_fleet(graph, 4, cfg, cfg.classes[0].deadline_slack_ms);
    const serve_sim::FleetReport rep = serve_sim::run_fleet_open_loop(fleet, fo_arrivals, capture);
    victim = fleet.worker_health(kVictim);
    return rep;
  };
  std::vector<serve::Completion> fo_completions;
  const serve_sim::FleetReport fo_rep = fo_once(&fo_completions);
  const bool fo_reproducible = serve_sim::fleet_reports_identical(fo_rep, fo_once(nullptr));

  // Clean 3-worker reference under the identical offered load: what the
  // shrunk fleet would do if it had been born with 3 replicas.
  serve::FleetConfig steady_fc;
  steady_fc.classes = fo_fc.classes;
  const auto steady_arrivals = serve_sim::generate_fleet_arrivals(fo_load, steady_fc.classes, {});
  auto steady_once = [&] {
    serve::Fleet fleet = make_fleet(graph, 3, steady_fc, steady_fc.classes[0].deadline_slack_ms);
    return serve_sim::run_fleet_open_loop(fleet, steady_arrivals);
  };
  const serve_sim::FleetReport steady_rep = steady_once();
  const bool steady_reproducible = serve_sim::fleet_reports_identical(steady_rep, steady_once());

  // Post-failover throughput: admitted completions finishing after the Down
  // declaration, over the remaining simulated time.
  const double detect_latency = victim.detected_ms - victim.last_progress_ms;
  std::int64_t post_served = 0;
  for (const serve::Completion& c : fo_completions)
    if (!c.rejected && c.finish_ms > victim.detected_ms) ++post_served;
  const double post_span_ms = fo_rep.makespan_ms - victim.detected_ms;
  const double post_tput =
      post_span_ms > 0 ? static_cast<double>(post_served) / post_span_ms * 1e3 : 0.0;
  const double post_ratio =
      steady_rep.throughput_rps > 0 ? post_tput / steady_rep.throughput_rps : 0.0;

  std::printf("failover (4 workers, crash=%zu@3000 ~ T/2):\n", kVictim);
  std::printf("  detection-to-drain %.3f ms after the last heartbeat (declared at %.2f ms "
              "of %.2f ms)\n",
              detect_latency, victim.detected_ms, fo_rep.makespan_ms);
  std::printf("  drain: %lld orphans re-queued, %lld shed at re-admission; "
              "failovers %lld, reproducible=%s\n",
              static_cast<long long>(fo_rep.requeued),
              static_cast<long long>(fo_rep.drain_shed),
              static_cast<long long>(fo_rep.failovers), fo_reproducible ? "yes" : "NO");
  std::printf("  post-failover %.1f req/s vs 3-worker steady %.1f req/s (%.2fx), "
              "admitted p99 %.3f ms (budget %.3f ms), miss %.2f%%\n\n",
              post_tput, steady_rep.throughput_rps, post_ratio, fo_rep.p99_response_ms,
              fo_fc.classes[0].p99_budget_ms, 100.0 * fo_rep.miss_rate);

  if (!fo_reproducible || !steady_reproducible) {
    std::fprintf(stderr, "serve_snapshot: failover rows not bit-identical across same-seed runs\n");
    ok = false;
  }
  if (fo_rep.failovers != 1) {
    std::fprintf(stderr, "serve_snapshot: expected exactly 1 failover, got %lld\n",
                 static_cast<long long>(fo_rep.failovers));
    ok = false;
  }
  if (post_ratio < 0.7) {
    std::fprintf(stderr, "serve_snapshot: post-failover throughput %.2fx below the 0.7x bar\n",
                 post_ratio);
    ok = false;
  }
  if (fo_rep.p99_response_ms > fo_fc.classes[0].p99_budget_ms) {
    std::fprintf(stderr, "serve_snapshot: failover admitted p99 %.3f ms over the %.3f ms budget\n",
                 fo_rep.p99_response_ms, fo_fc.classes[0].p99_budget_ms);
    ok = false;
  }

  // --- cascade: input-adaptive two-stage serving vs the static deep cut --
  // The accuracy side of the claim lives in the golden cascade front
  // (tests/golden/cascade_front.json): escalations return the deep TRN's
  // output and early exits only take high-confidence answers, so the
  // cascade's accuracy is equal-or-better than the shallow cut and tracks
  // the deep one. This row pins the latency side: at a deadline-feasible
  // load, the cascade's mean response beats serving every request deep.
  util::Rng casc_rng(11);
  const std::vector<int> casc_cuts = core::blockwise_cutpoints(graph);
  const int casc_shallow = casc_cuts[casc_cuts.size() / 3];
  const int casc_deep = casc_cuts.back();
  const nn::Graph shallow_graph =
      core::build_trn(graph, casc_shallow, core::HeadConfig{}, casc_rng);
  const nn::Graph deep_graph = core::build_trn(graph, casc_deep, core::HeadConfig{}, casc_rng);
  const int casc_resume = core::resume_node(graph, casc_shallow);
  const auto shallow_curve = batch_curve(shallow_graph);
  const auto deep_curve = batch_curve(deep_graph);
  const auto stage2_curve = batch_curve(deep_graph, casc_resume);
  const double casc_p = 0.3;  // calibrated escalation mass (timing-only row)

  serve_sim::LoadConfig casc_load;
  casc_load.requests = 2000;
  casc_load.mean_interarrival_ms = 1.2 * deep_curve(1);  // feasible even all-deep
  casc_load.deadline_slack_ms = 3.0 * deep_curve(1);
  const auto casc_arrivals = serve_sim::generate_arrivals(casc_load, {});

  std::int64_t casc_escalated = 0;
  auto casc_once = [&](bool cascaded) {
    serve::RequestQueue queue;
    serve::ServeConfig sc;
    sc.max_batch = 8;
    sc.nominal_deadline_ms = casc_load.deadline_slack_ms;
    serve::ServeCascade cascade;
    if (cascaded) {
      cascade.enabled = true;
      cascade.threshold = 0.2;
      cascade.p_escalate = casc_p;
      cascade.stage2_ms = stage2_curve;
    }
    serve::BatchServer server({{cascaded ? "cascade" : "deep-static", nullptr,
                                cascaded ? shallow_curve : deep_curve, cascade}},
                              queue, sc);
    serve_sim::SimReport rep = serve_sim::run_open_loop(server, queue, casc_arrivals);
    if (cascaded) casc_escalated = server.stats().escalated;
    return rep;
  };
  const auto mean_response = [](const serve_sim::SimReport& r) {
    double sum = 0.0;
    for (const serve::Completion& c : r.completions) sum += c.finish_ms - c.arrival_ms;
    return r.completions.empty() ? 0.0 : sum / static_cast<double>(r.completions.size());
  };
  const serve_sim::SimReport casc_rep = casc_once(true);
  const bool casc_reproducible = serve_sim::reports_identical(casc_rep, casc_once(true));
  const serve_sim::SimReport deep_rep = casc_once(false);
  const bool deep_reproducible = serve_sim::reports_identical(deep_rep, casc_once(false));
  const double casc_mean = mean_response(casc_rep);
  const double deep_mean = mean_response(deep_rep);

  std::printf("cascade (stage1 /%d + p=%.2f x stage2 resume@%d) vs deep static /%d:\n",
              casc_shallow, casc_p, casc_resume, casc_deep);
  std::printf("  cascade:     mean %.4f ms, p99 %.3f ms, miss %.2f%%, escalated %lld, "
              "reproducible=%s\n",
              casc_mean, casc_rep.p99_response_ms, 100.0 * casc_rep.miss_rate,
              static_cast<long long>(casc_escalated), casc_reproducible ? "yes" : "NO");
  std::printf("  deep static: mean %.4f ms, p99 %.3f ms, miss %.2f%%, reproducible=%s\n\n",
              deep_mean, deep_rep.p99_response_ms, 100.0 * deep_rep.miss_rate,
              deep_reproducible ? "yes" : "NO");

  if (!casc_reproducible || !deep_reproducible) {
    std::fprintf(stderr, "serve_snapshot: cascade rows not bit-identical across same-seed runs\n");
    ok = false;
  }
  if (casc_mean >= deep_mean) {
    std::fprintf(stderr, "serve_snapshot: cascade mean %.4f ms not below deep static %.4f ms\n",
                 casc_mean, deep_mean);
    ok = false;
  }
  if (casc_rep.miss_rate > deep_rep.miss_rate) {
    std::fprintf(stderr, "serve_snapshot: cascade miss rate exceeds the deep static baseline\n");
    ok = false;
  }
  if (casc_escalated <= 0) {
    std::fprintf(stderr, "serve_snapshot: cascade row never escalated\n");
    ok = false;
  }

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "serve_snapshot: cannot open " << json_path << "\n";
    return 1;
  }
  out << "{\n  \"load\": {\"requests\": " << load.requests
      << ", \"mean_interarrival_ms\": " << load.mean_interarrival_ms
      << ", \"deadline_slack_ms\": " << load.deadline_slack_ms
      << ", \"seed\": " << load.seed << "},\n";
  out << "  \"throughput_ratio\": " << ratio << ",\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) emit_json(out, runs[i], i + 1 == runs.size());
  out << "  ],\n";
  out << "  \"fleet\": {\n    \"throughput_ratio_4v1\": " << ratio_4v1 << ",\n";
  out << "    \"scaling\": [\n";
  for (std::size_t i = 0; i < fleet_runs.size(); ++i)
    emit_fleet_json(out, fleet_runs[i], i + 1 == fleet_runs.size());
  out << "    ],\n    \"overload\": [\n";
  emit_fleet_json(out, overload, true);
  out << "    ],\n    \"tenants\": [\n";
  {
    std::size_t i = 0;
    for (const auto& [tenant, tr] : overload.report.tenants) {
      out << "      {\"tenant\": " << tenant << ", \"class\": \""
          << tenant_fc.classes[tr.slo].name << "\", \"submitted\": " << tr.submitted
          << ", \"shed_rate\": " << tr.shed_rate << ", \"miss_rate\": " << tr.miss_rate
          << ", \"p99_response_ms\": " << tr.p99_response_ms
          << ", \"p99_budget_ms\": " << tenant_fc.classes[tr.slo].p99_budget_ms << "}"
          << (++i == overload.report.tenants.size() ? "" : ",") << "\n";
    }
  }
  out << "    ],\n    \"failover\": {\"workers\": 4, \"crash\": \"" << kVictim
      << "@3000\", \"detection_latency_ms\": " << detect_latency
      << ", \"detected_ms\": " << victim.detected_ms << ", \"requeued\": " << fo_rep.requeued
      << ", \"drain_shed\": " << fo_rep.drain_shed << ", \"failovers\": " << fo_rep.failovers
      << ", \"post_failover_throughput_rps\": " << post_tput
      << ", \"three_worker_throughput_rps\": " << steady_rep.throughput_rps
      << ", \"post_over_steady_ratio\": " << post_ratio
      << ", \"p99_response_ms\": " << fo_rep.p99_response_ms
      << ", \"p99_budget_ms\": " << fo_fc.classes[0].p99_budget_ms
      << ", \"miss_rate\": " << fo_rep.miss_rate << ", \"digest\": " << fo_rep.digest
      << ", \"reproducible\": " << (fo_reproducible ? "true" : "false") << "}\n  },\n";
  out << "  \"cascade\": {\"shallow_cut\": " << casc_shallow << ", \"deep_cut\": " << casc_deep
      << ", \"resume_node\": " << casc_resume << ", \"p_escalate\": " << casc_p
      << ", \"requests\": " << casc_load.requests
      << ", \"mean_interarrival_ms\": " << casc_load.mean_interarrival_ms
      << ",\n    \"cascade_mean_ms\": " << casc_mean
      << ", \"cascade_p99_ms\": " << casc_rep.p99_response_ms
      << ", \"cascade_miss_rate\": " << casc_rep.miss_rate
      << ", \"escalated\": " << casc_escalated
      << ", \"cascade_reproducible\": " << (casc_reproducible ? "true" : "false")
      << ",\n    \"deep_static_mean_ms\": " << deep_mean
      << ", \"deep_static_p99_ms\": " << deep_rep.p99_response_ms
      << ", \"deep_static_miss_rate\": " << deep_rep.miss_rate
      << ", \"deep_static_reproducible\": " << (deep_reproducible ? "true" : "false")
      << ",\n    \"mean_latency_improved\": " << (casc_mean < deep_mean ? "true" : "false")
      << "}\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return ok ? 0 : 1;
}
