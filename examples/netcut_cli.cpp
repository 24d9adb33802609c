// Command-line front end for NetCut: pick a deadline and an estimator, get
// the deadline-meeting TRN per network and the final selection.
//
//   netcut_cli [--deadline MS] [--estimator profiler|analytical]
//              [--net NAME ...] [--fast] [--cache-dir DIR] [--workers N]
//              [--kill-worker W@S] [--cascade SPEC]
//
// Example:
//   ./build/examples/netcut_cli --deadline 0.6 --estimator analytical
//
// --workers N skips the selection pipeline and runs the fleet serving demo
// instead: N timing-only replicas behind the sharded queue with admission
// control, under a deterministic two-tenant overload (serve/fleet.hpp).
// --kill-worker W@S additionally fail-stops replica W at its S-th dispatch
// attempt (the crash=W@S fault clause), printing the failover timeline:
// detection, drain, orphan re-queue onto the survivors.
// --cascade shallow=I,deep=J,thr=P calibrates the input-adaptive cascade
// over blockwise cut ordinals I < J: escalate to the deep cut when the
// shallow head's softmax margin is below P, and print the operating point
// (escalation rate, accuracy, expected latency) against both static cuts.
//
// Exit codes: 0 success, 1 no network meets the deadline, 2 bad arguments,
// 3 filesystem failure (unreadable/unwritable caches), 4 runtime failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cascade.hpp"
#include "core/estimator.hpp"
#include "core/netcut.hpp"
#include "hw/device.hpp"
#include "hw/faults.hpp"
#include "serve/fleet.hpp"
#include "serve_sim.hpp"
#include "tensor/backend.hpp"
#include "util/table.hpp"

namespace {

constexpr int kExitNoFeasible = 1;
constexpr int kExitBadArgs = 2;
constexpr int kExitFilesystem = 3;
constexpr int kExitRuntime = 4;

void usage() {
  std::printf(
      "usage: netcut_cli [--deadline MS] [--estimator profiler|analytical]\n"
      "                  [--net NAME ...] [--fast] [--cache-dir DIR]\n"
      "                  [--backend scalar|simd] [--workers N] [--kill-worker W@S]\n"
      "                  [--cascade shallow=I,deep=J,thr=P]\n"
      "nets: ");
  for (auto id : netcut::zoo::all_nets())
    std::printf("%s ", netcut::zoo::net_name(id).c_str());
  std::printf("\n");
}

// Fleet serving demo behind --workers N: a homogeneous timing-only fleet of
// N replicas over the smallest zoo trunk, driven by the same deterministic
// open-loop simulation the tests and bench use, at ~1.5x the fleet's
// aggregate capacity so admission control visibly sheds.
int run_fleet_demo(std::size_t workers, const std::string& kill_spec) {
  using namespace netcut;

  const auto curve = hw::DeviceModel().batch_curve(
      zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32), hw::Precision::kInt8, true, 8);

  // --kill-worker W@S is sugar for the crash=W@S NETCUT_FAULTS clause,
  // scoped to this fleet (measurement streams are untouched).
  const hw::FaultModel kill_model(
      kill_spec.empty() ? hw::parse_fault_spec("off")
                        : hw::parse_fault_spec("crash=" + kill_spec));

  serve::FleetConfig fc;
  fc.classes = {{"gold", 5.0 * curve(1), 5.0 * curve(1), 3.0},
                {"standard", 9.0 * curve(1), 9.0 * curve(1), 1.0}};
  if (!kill_spec.empty()) {
    fc.faults = &kill_model;
    // Heartbeat deadlines a few batch times out, on the simulated fleet's
    // service timescale, so detection (and the drain) lands mid-run.
    fc.health.suspect_after_ms = 2.0 * curve(8);
    fc.health.down_after_ms = 5.0 * curve(8);
  }
  std::vector<serve::FleetWorker> specs;
  for (std::size_t w = 0; w < workers; ++w) {
    serve::FleetWorker fw;
    fw.name = "replica" + std::to_string(w);
    fw.options = {{"trn", nullptr, curve, {}}};
    fw.serve.max_batch = 8;
    fw.serve.nominal_deadline_ms = fc.classes[0].deadline_slack_ms;
    fw.serve.seed = util::derive_seed(7070, "cli/fleet/worker/" + std::to_string(w));
    specs.push_back(std::move(fw));
  }
  serve::Fleet fleet(std::move(specs), fc);

  serve_sim::FleetLoadConfig load;
  load.requests = 20000;
  const double capacity = static_cast<double>(workers) * 8.0 / curve(8);
  load.mean_interarrival_ms = 1.0 / (1.5 * capacity);  // ~1.5x fleet capacity
  load.tenants = {{1, 0, 2.0}, {2, 1, 1.0}};
  const auto arrivals = serve_sim::generate_fleet_arrivals(load, fc.classes, {});
  const serve_sim::FleetReport rep = serve_sim::run_fleet_open_loop(fleet, arrivals);

  std::printf("fleet demo: %zu worker%s, %lld requests at ~1.5x capacity\n", workers,
              workers == 1 ? "" : "s", static_cast<long long>(rep.submitted));
  std::printf("  served %lld (%.1f req/s), shed %lld (%.1f%%, explicit rejections), "
              "missed %lld\n",
              static_cast<long long>(rep.served), rep.throughput_rps,
              static_cast<long long>(rep.shed), 100.0 * rep.shed_rate,
              static_cast<long long>(rep.missed));
  std::printf("  p50 %.3f ms, p99 %.3f ms, mean batch %.2f, steals %lld\n",
              rep.p50_response_ms, rep.p99_response_ms, rep.mean_batch,
              static_cast<long long>(rep.steals));
  for (const auto& [tenant, tr] : rep.tenants)
    std::printf("  tenant %u (%s): submitted %lld, shed %.1f%%, miss %.2f%%, "
                "p99 %.3f ms (budget %.3f ms)\n",
                tenant, fc.classes[tr.slo].name.c_str(),
                static_cast<long long>(tr.submitted), 100.0 * tr.shed_rate,
                100.0 * tr.miss_rate, tr.p99_response_ms,
                fc.classes[tr.slo].p99_budget_ms);
  if (!kill_spec.empty()) {
    std::printf("  failover: %lld declared (--kill-worker %s), %lld orphans re-queued, "
                "%lld shed at re-admission\n",
                static_cast<long long>(rep.failovers), kill_spec.c_str(),
                static_cast<long long>(rep.requeued),
                static_cast<long long>(rep.drain_shed));
    for (std::size_t w = 0; w < fleet.workers(); ++w)
      std::printf("  %s: %s, %lld batches\n", fleet.worker_name(w).c_str(),
                  serve::replica_state_name(fleet.worker_state(w)),
                  static_cast<long long>(fleet.worker(w).stats().batches));
  }
  return 0;
}

// Cascade demo behind --cascade: calibrate the (shallow, deep, thr) cascade
// on each requested net and print its operating point next to the two static
// cuts it is built from, plus the dominance verdict the golden tests gate on.
int run_cascade_demo(const netcut::core::CascadeSpec& spec,
                     const std::vector<netcut::zoo::NetId>& nets,
                     netcut::core::TrnEvaluator& evaluator, netcut::core::LatencyLab& lab) {
  using namespace netcut;

  const std::vector<zoo::NetId> targets =
      nets.empty() ? std::vector<zoo::NetId>{zoo::NetId::kMobileNetV1_025} : nets;
  core::CascadeExplorer explorer(evaluator, lab);
  std::printf("cascade: shallow ordinal %d, deep ordinal %d, escalate below margin %.3g\n\n",
              spec.shallow, spec.deep, spec.threshold);
  for (zoo::NetId net : targets) {
    const std::vector<int>& blocks = lab.blockwise(net);
    if (spec.deep >= static_cast<int>(blocks.size()))
      throw std::invalid_argument("--cascade: deep ordinal " + std::to_string(spec.deep) +
                                  " out of range for " + zoo::net_name(net) + " (has " +
                                  std::to_string(blocks.size()) + " blockwise cuts)");
    const int shallow_cut = blocks[static_cast<std::size_t>(spec.shallow)];
    const int deep_cut = blocks[static_cast<std::size_t>(spec.deep)];
    const std::vector<core::TradeoffPoint> singles =
        explorer.single_cut_points(net, {shallow_cut, deep_cut});
    const core::CascadeOperatingPoint point =
        explorer.operating_point(net, shallow_cut, deep_cut, spec.threshold);

    util::Table table({"operating point", "latency_ms", "accuracy", "p_escalate"});
    table.add_row({singles[0].name, util::Table::num(singles[0].latency_ms, 4),
                   util::Table::num(singles[0].accuracy, 4), "-"});
    table.add_row({singles[1].name, util::Table::num(singles[1].latency_ms, 4),
                   util::Table::num(singles[1].accuracy, 4), "-"});
    table.add_row({point.name, util::Table::num(point.latency_ms, 4),
                   util::Table::num(point.accuracy, 4),
                   util::Table::num(point.p_escalate, 3)});
    std::printf("%s\n%s", zoo::net_name(net).c_str(), table.to_string().c_str());
    const bool improves = core::cascade_improves({point}, core::pareto_frontier(singles));
    std::printf("cascade %s the static-cut front\n\n",
                improves ? "dominates a point of" : "does not dominate");
  }
  return 0;
}

int run_cli(int argc, char** argv) {
  using namespace netcut;

  double deadline = 0.9;
  std::string estimator_name = "profiler";
  std::vector<zoo::NetId> nets;
  bool fast = false;
  std::string cache_dir;
  std::size_t workers = 0;      // 0 = no fleet demo
  std::string kill_worker;      // "W@S" crash spec for the fleet demo
  core::CascadeSpec cascade;    // disabled unless --cascade parses enabled

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--deadline" && i + 1 < argc) {
      deadline = std::atof(argv[++i]);
    } else if (arg == "--estimator" && i + 1 < argc) {
      estimator_name = argv[++i];
    } else if (arg == "--fast") {
      fast = true;
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (arg == "--backend" && i + 1 < argc) {
      // Force the kernel backend for this run, overriding both the default
      // and NETCUT_BACKEND. parse_backend throws std::invalid_argument on an
      // unknown name, which the top-level handler maps to exit 2.
      tensor::set_backend(tensor::parse_backend(argv[++i]));
    } else if (arg == "--workers" && i + 1 < argc) {
      // Full-consumption strtol: "8x" or "abc" must not silently parse as a
      // prefix. Anything that is not an integer >= 1 is operator error.
      char* end = nullptr;
      const long n = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n < 1) {
        std::fprintf(stderr, "netcut_cli: --workers needs an integer >= 1, got '%s'\n",
                     argv[i]);
        return kExitBadArgs;
      }
      workers = static_cast<std::size_t>(n);
    } else if (arg == "--kill-worker" && i + 1 < argc) {
      // Validate eagerly: the value is the W@S body of a crash= clause, so
      // the fault-spec parser is the single source of truth for its shape.
      kill_worker = argv[++i];
      try {
        (void)hw::parse_fault_spec("crash=" + kill_worker);
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr,
                     "netcut_cli: --kill-worker needs W@S (replica index @ dispatch "
                     "attempt), got '%s'\n",
                     kill_worker.c_str());
        return kExitBadArgs;
      }
    } else if (arg == "--cascade" && i + 1 < argc) {
      // Validate eagerly, like --kill-worker: the spec grammar lives in one
      // place (core::parse_cascade_spec) and a malformed spec must fail
      // before the expensive evaluator pipeline spins up.
      try {
        cascade = core::parse_cascade_spec(argv[++i]);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "netcut_cli: %s\n", e.what());
        return kExitBadArgs;
      }
    } else if (arg == "--net" && i + 1 < argc) {
      const std::string want = argv[++i];
      bool found = false;
      for (auto id : zoo::all_nets())
        if (zoo::net_name(id) == want) {
          nets.push_back(id);
          found = true;
        }
      if (!found) {
        std::printf("unknown network '%s'\n", want.c_str());
        usage();
        return kExitBadArgs;
      }
    } else {
      usage();
      return arg == "--help" ? 0 : kExitBadArgs;
    }
  }

  if (!kill_worker.empty() && workers == 0) {
    std::fprintf(stderr, "netcut_cli: --kill-worker only applies to the fleet demo; "
                         "pass --workers N as well\n");
    return kExitBadArgs;
  }
  if (workers > 0) return run_fleet_demo(workers, kill_worker);

  // Redirect both experiment caches under --cache-dir, creating it eagerly
  // so an unusable location fails fast (exit 3) before any expensive work.
  std::string accuracy_cache = "netcut_accuracy_cache.csv";
  std::string weight_cache = "netcut_weights";
  if (!cache_dir.empty()) {
    std::filesystem::create_directories(cache_dir);
    accuracy_cache = (std::filesystem::path(cache_dir) / accuracy_cache).string();
    weight_cache = (std::filesystem::path(cache_dir) / weight_cache).string();
  }

  core::LatencyLab lab;
  data::HandsConfig data_cfg;
  data_cfg.resolution = 24;
  data_cfg.train_count = fast ? 120 : 300;
  data_cfg.test_count = fast ? 60 : 120;
  const data::HandsDataset dataset(data_cfg);

  core::EvalConfig eval_cfg;
  eval_cfg.resolution = 24;
  eval_cfg.epochs = fast ? 8 : 16;
  eval_cfg.cache_path = accuracy_cache;
  eval_cfg.weight_cache_dir = weight_cache;
  if (fast) {
    eval_cfg.pretrained.source_images = 100;
    eval_cfg.pretrained.epochs = 8;
  }
  core::TrnEvaluator evaluator(dataset, eval_cfg);

  if (cascade.enabled) return run_cascade_demo(cascade, nets, evaluator, lab);

  std::unique_ptr<core::LatencyEstimator> estimator;
  core::AnalyticalEstimator analytical(lab);
  core::ProfilerEstimator profiler(lab);
  if (estimator_name == "analytical") {
    // Fit on the blockwise latency sweep (the paper's 20% train split).
    std::vector<core::LatencySample> train;
    std::size_t i = 0;
    for (zoo::NetId net : zoo::all_nets())
      for (int cut : lab.blockwise(net)) {
        if (i++ % 5 != 2) continue;
        core::LatencySample s;
        s.base = net;
        s.cut_node = cut;
        s.features = core::compute_trn_features(lab, net, cut);
        s.measured_ms = lab.measured_ms(net, cut);
        train.push_back(std::move(s));
      }
    analytical.fit(train);
  } else if (estimator_name != "profiler") {
    usage();
    return kExitBadArgs;
  }
  core::LatencyEstimator& est =
      estimator_name == "analytical" ? static_cast<core::LatencyEstimator&>(analytical)
                                     : static_cast<core::LatencyEstimator&>(profiler);

  std::printf("NetCut: deadline %.3f ms, estimator %s\n\n", deadline, est.name().c_str());
  core::NetCut netcut(lab, evaluator);
  core::NetCutConfig cfg;
  cfg.deadline_ms = deadline;
  cfg.networks = nets;
  const core::NetCutResult result = netcut.run(est, cfg);

  if (result.proposals.empty()) {
    std::printf("no network can meet %.3f ms on this device\n", deadline);
    return kExitNoFeasible;
  }

  util::Table table({"proposal", "est_ms", "measured_ms", "accuracy", "top1", "GPU-h"});
  for (const core::NetCutProposal& p : result.proposals)
    table.add_row({p.trn.trn_name, util::Table::num(p.estimated_ms, 3),
                   util::Table::num(p.trn.latency_ms, 3), util::Table::num(p.trn.accuracy, 4),
                   util::Table::num(p.trn.top1, 3), util::Table::num(p.trn.train_hours, 2)});
  std::printf("%s\n", table.to_string().c_str());
  const auto& w = result.winner();
  std::printf("selected: %s  (%.3f ms measured, accuracy %.4f)\n", w.trn.trn_name.c_str(),
              w.trn.latency_ms, w.trn.accuracy);
  std::printf("retrained %d networks, %.2f GPU-hours on the training-server model\n",
              result.networks_retrained, result.exploration_hours);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // One-line diagnostics with distinct exit codes instead of a raw abort —
  // a fleet script wrapping this binary can tell operator error (2) from a
  // full disk (3) from a genuine pipeline failure (4).
  try {
    return run_cli(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "netcut_cli: invalid argument: %s\n", e.what());
    return kExitBadArgs;
  } catch (const std::filesystem::filesystem_error& e) {
    std::fprintf(stderr, "netcut_cli: filesystem error: %s\n", e.what());
    return kExitFilesystem;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netcut_cli: error: %s\n", e.what());
    return kExitRuntime;
  }
}
