// `explore`: the paper's method (Algorithm 1) at the robotic hand's 0.9 ms
// deadline over the seven zoo trunks, with both latency estimators: the
// per-layer profiler and the SVR fitted on the 20% split. The accuracy memo
// file is off, so every proposal is really retrained. Sized like the
// NETCUT_FAST experiment (24x24 HANDS images, 8 head epochs) but on a third
// of its images (40 train / 20 test), so a run holds three explorations.
// This is the user's exploration time: lab, estimators, feature harvest (nn
// in throughput mode) and head training.
//
// Pretrained trunk weights come from a cache filled once per checkout
// before any measurement (fill_weight_cache); the fill is never timed.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/evaluator.hpp"
#include "core/lab.hpp"
#include "core/netcut.hpp"
#include "core/pretrained_cache.hpp"
#include "core/trn.hpp"
#include "data/hands.hpp"
#include "nn/init.hpp"
#include "quant/fusion.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "zoo/zoo.hpp"

namespace perfbench {
namespace {

namespace core = netcut::core;
namespace data = netcut::data;
namespace zoo = netcut::zoo;

constexpr double kDeadlineMs = 0.9;
constexpr int kResolution = 24;  // the pretraining resolution
constexpr int kThreads = 3;  // pool participants; one core left for the OS

/// The HANDS images are the repository's experiment dataset (seed 42, as in
/// every figure); --seed draws the evaluator's head initialisation and
/// calibration subset. Varying the dataset itself moved the selected
/// accuracy by 8% between seeds.
data::HandsConfig dataset_config() {
  data::HandsConfig c;
  c.resolution = kResolution;
  c.train_count = 40;
  c.test_count = 20;
  c.seed = 42;
  return c;
}

data::PretrainedConfig pretrained_config() {
  data::PretrainedConfig c;
  c.source_images = 100;
  c.epochs = 8;
  return c;
}

core::EvalConfig eval_config(const Options& opt) {
  core::EvalConfig c;
  c.resolution = kResolution;
  c.seed = netcut::util::derive_seed(opt.seed, "perfbench/explore/eval");
  c.epochs = 8;
  c.cache_path = "";  // no accuracy memo file: every proposal is retrained
  c.pretrained = pretrained_config();
  c.weight_cache_dir = opt.work_dir + "/weights";
  return c;
}

/// Blockwise TRN latency samples of every zoo network, split 20/80 by
/// position (the paper's protocol); the SVR trains on the 20%.
std::vector<core::LatencySample> svr_train_split(core::LatencyLab& lab) {
  std::vector<core::LatencySample> train;
  std::size_t i = 0;
  for (zoo::NetId net : zoo::all_nets())
    for (int cut : lab.blockwise(net)) {
      if (i++ % 5 != 2) continue;
      train.push_back({net, cut, core::compute_trn_features(lab, net, cut), lab.measured_ms(net, cut)});
    }
  return train;
}

struct Selection {
  std::string trn;
  double accuracy = 0.0;
  int retrained = 0;  // distinct TRNs retrained across both estimators
  int queries = 0;    // estimator queries across both estimators
  std::set<std::pair<zoo::NetId, int>> trns;  // (base, cut) of every TRN retrained
};

/// Best proposal over both estimators' winners (ties: first found).
void consider(Selection& sel, const core::Candidate& c) {
  if (sel.trn.empty() || c.accuracy > sel.accuracy) {
    sel.trn = c.trn_name;
    sel.accuracy = c.accuracy;
  }
}

/// NetCut::run with each estimator, exactly as a user calls it: the
/// reference the phases called one by one must agree with.
Selection explore_plain(const Options& opt, const data::HandsDataset& dataset) {
  core::LatencyLab lab(core::LabConfig{});
  const std::vector<core::LatencySample> train = svr_train_split(lab);
  core::AnalyticalEstimator svr(lab);
  svr.fit(train);
  core::ProfilerEstimator prof(lab);
  core::TrnEvaluator evaluator(dataset, eval_config(opt));
  core::NetCut netcut(lab, evaluator);
  core::NetCutConfig cfg;
  cfg.deadline_ms = kDeadlineMs;
  Selection sel;
  for (core::LatencyEstimator* est : {static_cast<core::LatencyEstimator*>(&prof),
                                      static_cast<core::LatencyEstimator*>(&svr)}) {
    const core::NetCutResult r = netcut.run(*est, cfg);
    for (const core::NetCutProposal& p : r.proposals) {
      sel.trns.insert({p.trn.base, p.trn.cut_node});
      sel.queries += p.cutpoints_tried;
    }
    consider(sel, r.winner().trn);
  }
  sel.retrained = static_cast<int>(sel.trns.size());
  return sel;
}

/// The phases of NetCut::run called one by one, each in a span named after
/// the module it runs in. The steps come in the same order every time.
Selection explore_steps(const Options& opt, const data::HandsDataset& dataset, Trace& tr,
                         int& bases_harvested) {
  core::LatencyLab lab(core::LabConfig{});
  const std::vector<core::LatencySample> train = tr.span("hw.lab", [&] { return svr_train_split(lab); });
  core::AnalyticalEstimator svr(lab);
  tr.span("ml.svr_fit", [&] { svr.fit(train); });
  core::ProfilerEstimator prof(lab);
  core::TrnEvaluator evaluator(dataset, eval_config(opt));
  core::NetCut netcut(lab, evaluator);
  Selection sel;
  std::set<zoo::NetId> harvested;
  for (core::LatencyEstimator* est : {static_cast<core::LatencyEstimator*>(&prof),
                                      static_cast<core::LatencyEstimator*>(&svr)}) {
    core::Candidate best;
    for (zoo::NetId base : zoo::all_nets()) {
      int tried = 0;
      const auto feasible = tr.span("core.estimate", [&] {
        return netcut.first_feasible_cut(*est, base, kDeadlineMs, &tried);
      });
      sel.queries += tried;
      if (!feasible) continue;
      if (harvested.insert(base).second) tr.span("core.harvest", [&] { evaluator.prepare(base); });
      const core::AccuracyResult acc =
          tr.span("core.head_train", [&] { return evaluator.accuracy(base, feasible->first); });
      sel.trns.insert({base, feasible->first});
      if (best.trn_name.empty() || acc.angular_similarity > best.accuracy) {
        best.trn_name = lab.name(base, feasible->first);
        best.accuracy = acc.angular_similarity;
      }
    }
    if (!best.trn_name.empty()) consider(sel, best);
  }
  sel.retrained = static_cast<int>(sel.trns.size());
  bases_harvested = static_cast<int>(harvested.size());
  return sel;
}

/// The retrained TRNs for the per-layer suite, BN folded. Trunk weights are
/// drawn, not loaded: the suite times the networks, whatever their weights.
std::vector<SuiteNet> suite_nets(const Selection& sel, std::uint64_t seed) {
  std::vector<SuiteNet> nets;
  netcut::util::Rng rng(netcut::util::derive_seed(seed, "perfbench/explore/suite"));
  for (const auto& [base, cut] : sel.trns) {
    netcut::nn::Graph trunk = zoo::build_trunk(base, kResolution);
    netcut::nn::init_graph(trunk, rng);
    nets.push_back({core::trn_name(zoo::net_name(base), trunk, cut),
                    netcut::quant::fold_batchnorm(core::build_trn(trunk, cut, core::HeadConfig{}, rng))});
  }
  return nets;
}

/// Untraced explorations in a run: one per 5 s of --seconds, at least one
/// (three at 15 s). The count never depends on how many fit, so a faster
/// and a slower program are summarised by the same statistic.
int explorations(double seconds) { return std::max(1, static_cast<int>(seconds / 5.0)); }

}  // namespace

std::vector<int> missing_weights(const Options& opt) {
  std::vector<int> out;
  const std::vector<zoo::NetId> nets = zoo::all_nets();
  for (std::size_t i = 0; i < nets.size(); ++i)
    if (!core::pretrained_available(nets[i], pretrained_config(), opt.work_dir + "/weights"))
      out.push_back(static_cast<int>(i));
  return out;
}

void fill_weight_cache(const Options& opt, int net_index) {
  const zoo::NetId net = zoo::all_nets().at(static_cast<std::size_t>(net_index));
  core::pretrained_trunk(net, kResolution, pretrained_config(), opt.work_dir + "/weights");
}

void run_explore(const Options& opt, Result& out) {
  netcut::util::set_num_threads(kThreads);
  for (int i : missing_weights(opt))
    out.fail("explore: weight cache has no " + zoo::net_name(zoo::all_nets()[static_cast<std::size_t>(i)]) +
             " (run.py fills it)");
  if (out.failed > 0) return;  // pretraining inside the timed region would swamp it

  // Set-up: render the dataset and load every trunk from the weight cache
  // once (the explorations reload them; this pass proves the cache is whole).
  std::unique_ptr<data::HandsDataset> dataset;
  const double setup_s = median_setup_s(
      kSetupRepeats,
      [&] {
        dataset = std::make_unique<data::HandsDataset>(dataset_config());
        for (zoo::NetId net : zoo::all_nets())
          core::pretrained_trunk(net, kResolution, pretrained_config(), opt.work_dir + "/weights");
      },
      [&] { dataset.reset(); });
  out.end_to_end.push_back({"setup_s", setup_s, "s", kSetupRepeats, "HANDS dataset render + trunk weight loads"});

  // A fixed number of explorations, their phases called one by one and
  // each phase timed; every exploration must select what the first did.
  // The latency sums, step by step, the fastest instance of each step over
  // the run's explorations. The pool's three threads wait for whichever
  // the shared host slows, and its contention came in episodes of tens of
  // seconds to minutes: timing one 16 s exploration per run (120/60
  // images), one set of ten seeds spread 0.33 of its median and two others
  // 0.05-0.11; the fastest of three whole 8 s explorations spread 0.07 in a
  // quiet stretch and 0.22 in a noisy one.
  std::vector<double> walls;
  std::vector<std::vector<double>> step_ms;  // per exploration, per step in order
  Selection first;
  int bases = 0;
  auto check = [&](const Selection& sel, const std::string& what) {
    ++out.attempted;
    if (sel.trn != first.trn || sel.accuracy != first.accuracy || sel.retrained != first.retrained)
      out.fail("explore: " + what + " selected " + sel.trn + " (" + std::to_string(sel.retrained) +
               " retrained), the first exploration " + first.trn + " (" + std::to_string(first.retrained) + ")");
  };
  auto timed_pass = [&](Trace& tr) {
    const std::size_t span0 = tr.spans().size();
    const auto t0 = Clock::now();
    const Selection sel = explore_steps(opt, *dataset, tr, bases);
    walls.push_back(ms_between(t0, Clock::now()) / 1000.0);
    std::vector<double> ms;
    for (std::size_t i = span0; i < tr.spans().size(); ++i) ms.push_back(tr.spans()[i].end_ms - tr.spans()[i].start_ms);
    if (step_ms.empty()) {
      first = sel;
      ++out.attempted;
    } else {
      check(sel, "a repeated exploration");
      if (ms.size() != step_ms.front().size()) out.fail("explore: a repeated exploration took other steps");
    }
    step_ms.push_back(std::move(ms));
  };
  const int count = opt.trace ? 1 : explorations(opt.seconds);
  for (int i = 0; i < count; ++i) {
    Trace local(Clock::now());
    timed_pass(local);
  }
  double latency_ms = 0.0;
  for (std::size_t i = 0; i < step_ms.front().size(); ++i) {
    double fastest = step_ms.front()[i];
    for (const std::vector<double>& ms : step_ms) fastest = std::min(fastest, i < ms.size() ? ms[i] : fastest);
    latency_ms += fastest;
  }

  double traced_s = 0.0;
  if (opt.trace) {
    // NetCut::run exactly as a user calls it must select what the phases
    // called one by one did; then one exploration recorded in the trace.
    check(explore_plain(opt, *dataset), "NetCut::run");
    timed_pass(out.trace);
    traced_s = walls.back();
  }

  std::printf("explore: selected %s (accuracy %.4f), %d TRNs retrained, %d estimator queries\n",
              first.trn.c_str(), first.accuracy, first.retrained, first.queries);
  out.end_to_end.push_back({"latency_ms", latency_ms, "ms", static_cast<std::size_t>(count),
                            "sum over the " + std::to_string(step_ms.front().size()) +
                                " steps of an exploration of each step's fastest instance in " +
                                std::to_string(count) + " explorations"});
  out.ungated.push_back({"explore_p50_ms", percentile(std::vector<double>(walls.begin(), walls.begin() + count), 50.0) * 1000.0,
                         "ms", static_cast<std::size_t>(count), "median wall time of a whole exploration"});
  out.ungated.push_back({"explore_accuracy", first.accuracy, "ratio", 1, "angular similarity of " + first.trn});
  if (!opt.trace) return;

  out.per_layer.push_back({"trace_overhead_pct", (traced_s - walls.front()) / walls.front() * 100.0, "%", 0,
                           "exploration recorded in the trace vs the one before it"});
  pass_shares(out.trace, traced_s * 1000.0, out);
  std::vector<netcut::tensor::Tensor> images;
  for (std::size_t i = 0; i < 8 && i < dataset->test().size(); ++i) images.push_back(dataset->test()[i].image);
  layer_suite(suite_nets(first, opt.seed), images, opt.seed, out);

  // The phases of the exploration, from the traced pass: printed, not in
  // the result line (the other workloads explore nothing).
  const auto d0 = Clock::now();
  { const data::HandsDataset again(dataset_config()); }
  out.trace.add("data.dataset", d0, Clock::now());
  const auto totals = out.trace.totals_ms();
  auto total_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second / 1000.0;
  };
  const double images_harvested =
      static_cast<double>(bases) * static_cast<double>(dataset->train().size() + dataset->test().size());
  out.ungated.push_back({"core.harvest_s", total_s("core.harvest"), "s", 0, "TrnEvaluator::prepare"});
  out.ungated.push_back({"core.head_train_s", total_s("core.head_train"), "s", 0, "TrnEvaluator::accuracy"});
  out.ungated.push_back({"core.estimate_s", total_s("core.estimate"), "s", 0, "NetCut::first_feasible_cut"});
  out.ungated.push_back({"core.estimator_queries", static_cast<double>(first.queries), "count", 0, ""});
  out.ungated.push_back({"core.trns_retrained", static_cast<double>(first.retrained), "count", 0, ""});
  out.ungated.push_back({"hw.lab_s", total_s("hw.lab"), "s", 0, "blockwise cuts, lab latencies, SVR features"});
  out.ungated.push_back({"ml.svr_fit_s", total_s("ml.svr_fit"), "s", 0, ""});
  out.ungated.push_back({"data.dataset_s", total_s("data.dataset"), "s", 0, "HandsDataset construction"});
  out.ungated.push_back({"nn.harvest_images_per_s", images_harvested / total_s("core.harvest"), "images/s", 0,
                         std::to_string(bases) + " trunks x " +
                             std::to_string(dataset->train().size() + dataset->test().size()) + " images"});
}

}  // namespace perfbench
