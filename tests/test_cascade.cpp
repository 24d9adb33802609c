// Input-adaptive TRN cascade (core/cascade.hpp): prefix-resume bitwise
// identities, degenerate-threshold equivalences, calibration monotonicity,
// spec-grammar round-trip + fuzz, and the golden (threshold x cut) Pareto
// front asserting the combined front dominates the single-cut front.
//
// Bitwise claims here are exact float comparisons: both TRNs of a cascade
// clone their weights from one trunk, kernels are deterministic at any
// NETCUT_THREADS, and forward_from is the suffix of the very computation
// the deep TRN's full forward runs.
//
// Regenerate the golden front after an intentional behaviour change:
//   NETCUT_GOLDEN_REGEN=1 ./build/tests/test_cascade
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/cascade.hpp"
#include "golden.hpp"
#include "util/thread_pool.hpp"
#include "zoo/zoo.hpp"

namespace netcut::core {
namespace {

#ifndef NETCUT_GOLDEN_DIR
#error "NETCUT_GOLDEN_DIR must point at the checked-in golden files"
#endif

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// ---- Spec grammar ------------------------------------------------------

TEST(CascadeSpec_, ParsesFullSpec) {
  const CascadeSpec s = parse_cascade_spec("shallow=1,deep=3,thr=0.25");
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.shallow, 1);
  EXPECT_EQ(s.deep, 3);
  EXPECT_DOUBLE_EQ(s.threshold, 0.25);
}

TEST(CascadeSpec_, OffAndEmptyDisable) {
  EXPECT_EQ(parse_cascade_spec("off"), CascadeSpec{});
  EXPECT_EQ(parse_cascade_spec(""), CascadeSpec{});
  EXPECT_EQ(format_cascade_spec(CascadeSpec{}), "off");
}

TEST(CascadeSpec_, RoundTripIsLossless) {
  for (const char* spec : {"off", "shallow=0,deep=1,thr=0", "shallow=2,deep=7,thr=0.15",
                           "shallow=1,deep=12,thr=0.33333333333333331", "thr=1,shallow=0,deep=9"}) {
    const CascadeSpec c = parse_cascade_spec(spec);
    EXPECT_EQ(parse_cascade_spec(format_cascade_spec(c)), c) << spec;
  }
}

TEST(CascadeSpec_, MalformedSpecsThrow) {
  for (const char* spec :
       {"banana", "shallow=1", "deep=2,thr=0.5", "shallow=1,deep=2", "shallow=x,deep=2,thr=0.5",
        "shallow=1,deep=2,thr=1.5", "shallow=1,deep=2,thr=-0.1", "shallow=2,deep=2,thr=0.5",
        "shallow=3,deep=1,thr=0.5", "shallow=-1,deep=2,thr=0.5", "shallow=1.5,deep=2,thr=0.5",
        "shallow=1,deep=2,thr=0.5,bogus=7", "shallow==1,deep=2,thr=0.5"}) {
    EXPECT_THROW(parse_cascade_spec(spec), std::invalid_argument) << spec;
  }
}

TEST(CascadeSpec_, TokenSoupFuzzNeverCrashesOrYieldsIllegalSpec) {
  // Random token soup over the grammar's alphabet: every outcome must be a
  // clean std::invalid_argument or a spec the rest of the system can trust
  // (enabled implies shallow < deep and threshold in [0,1]).
  const std::string alphabet = "shalowdepthr=,.0123456789-+exf";
  util::Rng rng(util::derive_seed(20260808, "cascade/fuzz"));
  for (int iter = 0; iter < 500; ++iter) {
    std::string soup;
    const int len = rng.uniform_int(0, 40);
    for (int i = 0; i < len; ++i)
      soup += alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(alphabet.size()) - 1))];
    try {
      const CascadeSpec s = parse_cascade_spec(soup);
      if (s.enabled) {
        EXPECT_LT(s.shallow, s.deep) << soup;
        EXPECT_GE(s.shallow, 0) << soup;
        EXPECT_GE(s.threshold, 0.0) << soup;
        EXPECT_LE(s.threshold, 1.0) << soup;
        // Whatever parses must round-trip losslessly.
        EXPECT_EQ(parse_cascade_spec(format_cascade_spec(s)), s) << soup;
      }
    } catch (const std::invalid_argument&) {
      // the contract: malformed input throws exactly this
    }
  }
}

TEST(SoftmaxMargin_, TopTwoGap) {
  tensor::Tensor p(tensor::Shape::vec(4));
  p[0] = 0.1f;
  p[1] = 0.6f;
  p[2] = 0.25f;
  p[3] = 0.05f;
  EXPECT_NEAR(softmax_margin(p), 0.35, 1e-7);
  EXPECT_THROW(softmax_margin(tensor::Tensor()), std::invalid_argument);
}

// ---- CascadeTrn bitwise identities -------------------------------------

class CascadeTrnTest : public ::testing::Test {
 protected:
  static constexpr int kRes = 32;

  CascadeTrn make_cascade(int& shallow, int& deep) {
    trunk_ = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, kRes);
    const std::vector<int> cuts = blockwise_cutpoints(trunk_);
    shallow = cuts[cuts.size() / 3];
    deep = cuts[cuts.size() - 1];
    util::Rng rng(7);
    return CascadeTrn(trunk_, shallow, deep, HeadConfig{}, rng);
  }

  nn::Graph trunk_;
};

TEST_F(CascadeTrnTest, RejectsInvertedCutOrder) {
  nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, kRes);
  const std::vector<int> cuts = blockwise_cutpoints(trunk);
  util::Rng rng(7);
  EXPECT_THROW(CascadeTrn(trunk, cuts.back(), cuts.front(), HeadConfig{}, rng),
               std::invalid_argument);
  EXPECT_THROW(CascadeTrn(trunk, cuts.front(), cuts.front(), HeadConfig{}, rng),
               std::invalid_argument);
}

TEST_F(CascadeTrnTest, PrefixResumeBitwiseEqualsDeepForwardAtThreads1And8) {
  int shallow = 0, deep = 0;
  CascadeTrn cascade = make_cascade(shallow, deep);
  util::Rng rng(11);
  const tensor::Tensor input = tensor::Tensor::randn(tensor::Shape::chw(3, kRes, kRes), rng, 0.5f);

  const int before = util::num_threads();
  for (const int threads : {1, 8}) {
    util::set_num_threads(threads);
    const tensor::Tensor direct = cascade.deep().forward(input);
    const CascadeTrn::Stage1 s1 = cascade.stage1(input);
    const tensor::Tensor resumed = cascade.escalate(s1);
    EXPECT_TRUE(bitwise_equal(resumed, direct)) << "threads=" << threads;
  }
  util::set_num_threads(before);
}

TEST_F(CascadeTrnTest, DegenerateThresholdsRecoverTheStaticCuts) {
  int shallow = 0, deep = 0;
  CascadeTrn cascade = make_cascade(shallow, deep);
  util::Rng rng(13);
  for (int i = 0; i < 4; ++i) {
    const tensor::Tensor input =
        tensor::Tensor::randn(tensor::Shape::chw(3, kRes, kRes), rng, 0.5f);

    // thr = 0: margin < 0 is impossible — every input exits shallow.
    const CascadeTrn::Result exit_all = cascade.classify(input, 0.0);
    EXPECT_FALSE(exit_all.escalated);
    EXPECT_TRUE(bitwise_equal(exit_all.output, cascade.shallow().forward(input)));

    // thr > 1: margin <= 1 always — every input escalates to the deep cut.
    const CascadeTrn::Result escalate_all = cascade.classify(input, 1.1);
    EXPECT_TRUE(escalate_all.escalated);
    EXPECT_TRUE(bitwise_equal(escalate_all.output, cascade.deep().forward(input)));
  }
}

TEST_F(CascadeTrnTest, EscalateBatchBitwiseEqualsSingles) {
  int shallow = 0, deep = 0;
  CascadeTrn cascade = make_cascade(shallow, deep);
  util::Rng rng(17);
  std::vector<tensor::Tensor> inputs;
  for (int i = 0; i < 5; ++i)
    inputs.push_back(tensor::Tensor::randn(tensor::Shape::chw(3, kRes, kRes), rng, 0.5f));
  std::vector<const tensor::Tensor*> in_ptrs;
  for (const tensor::Tensor& t : inputs) in_ptrs.push_back(&t);

  const std::vector<CascadeTrn::Stage1> stages = cascade.stage1_batch(in_ptrs);
  std::vector<const CascadeTrn::Stage1*> stage_ptrs;
  for (const CascadeTrn::Stage1& s : stages) stage_ptrs.push_back(&s);

  const int before = util::num_threads();
  util::set_num_threads(8);
  const std::vector<tensor::Tensor> batched = cascade.escalate_batch(stage_ptrs);
  util::set_num_threads(before);
  ASSERT_EQ(batched.size(), stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(batched[i], cascade.escalate(stages[i]))) << i;
    EXPECT_TRUE(bitwise_equal(batched[i], cascade.deep().forward(inputs[i]))) << i;
  }
}

TEST_F(CascadeTrnTest, SameSeedDecisionsAreDeterministicUnderChaos) {
  // Cascade decisions are pure functions of (trunk seed, input): the fault
  // layer perturbs simulated measurements, never network execution, so two
  // same-seed cascades agree bit-for-bit on every decision whether or not a
  // NETCUT_FAULTS chaos schedule is active in the environment.
  nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, kRes);
  const std::vector<int> cuts = blockwise_cutpoints(trunk);
  util::Rng rng_a(21), rng_b(21);
  CascadeTrn a(trunk, cuts[2], cuts.back(), HeadConfig{}, rng_a);
  CascadeTrn b(trunk, cuts[2], cuts.back(), HeadConfig{}, rng_b);

  util::Rng rng(22);
  for (int i = 0; i < 6; ++i) {
    const tensor::Tensor input =
        tensor::Tensor::randn(tensor::Shape::chw(3, kRes, kRes), rng, 0.5f);
    const CascadeTrn::Result ra = a.classify(input, 0.3);
    const CascadeTrn::Result rb = b.classify(input, 0.3);
    EXPECT_EQ(ra.escalated, rb.escalated) << i;
    EXPECT_EQ(ra.margin, rb.margin) << i;
    EXPECT_TRUE(bitwise_equal(ra.output, rb.output)) << i;
  }
}

// ---- Calibration + golden front ----------------------------------------

// Heavier than the usual tiny fixtures: the dominance claim needs deep
// features that actually transfer, which needs real pretraining (a starved
// source task leaves deep features no better than shallow ones and the
// premise of escalation collapses).
data::HandsConfig cascade_data() {
  data::HandsConfig c;
  c.resolution = 24;
  c.train_count = 200;
  c.test_count = 80;
  return c;
}

EvalConfig cascade_eval() {
  EvalConfig c;
  c.resolution = 24;
  c.epochs = 15;
  c.cache_path.clear();  // no cross-test memoization
  c.pretrained.source_images = 400;
  c.pretrained.epochs = 16;
  return c;
}

class CascadeExplorerTest : public ::testing::Test {
 protected:
  CascadeExplorerTest()
      : dataset_(cascade_data()), evaluator_(dataset_, cascade_eval()),
        explorer_(evaluator_, lab_) {}

  // A mid-depth cut window (blockwise ordinals 2/4/6). At test scale the
  // very first blocks are anomalously strong on the synthetic task
  // (directional accuracy-vs-depth holds at full experiment scale only —
  // see test_integration), so the sweep targets the window where the
  // transfer premise is real.
  std::vector<int> test_cuts(zoo::NetId net) {
    const std::vector<int>& blocks = lab_.blockwise(net);
    return {blocks[2], blocks[4], blocks[6]};
  }

  LatencyLab lab_;
  data::HandsDataset dataset_;
  TrnEvaluator evaluator_;
  CascadeExplorer explorer_;
};

TEST_F(CascadeExplorerTest, EscalationRateMonotoneInThreshold) {
  const zoo::NetId net = zoo::NetId::kMobileNetV1_025;
  const std::vector<int> cuts = test_cuts(net);
  double prev = -1.0;
  for (const double thr : {0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0}) {
    const double rate = explorer_.escalation_rate(net, cuts.front(), thr);
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
    EXPECT_GE(rate, prev) << "thr=" << thr;  // more required confidence, more escalation
    prev = rate;
  }
  // The degenerate thresholds pin the endpoints: thr=0 never escalates.
  EXPECT_DOUBLE_EQ(explorer_.escalation_rate(net, cuts.front(), 0.0), 0.0);
}

TEST_F(CascadeExplorerTest, OperatingPointCompositionIsConsistent) {
  const zoo::NetId net = zoo::NetId::kMobileNetV1_025;
  const std::vector<int> cuts = test_cuts(net);
  const CascadeOperatingPoint p = explorer_.operating_point(net, cuts[0], cuts[2], 0.2);
  EXPECT_DOUBLE_EQ(p.p_escalate, explorer_.escalation_rate(net, cuts[0], 0.2));
  EXPECT_NEAR(p.latency_ms,
              lab_.measured_ms(net, cuts[0]) +
                  p.p_escalate * lab_.measured_stage2_ms(net, cuts[0], cuts[2]),
              1e-12);
  // The second stage is cheaper than the full deep TRN (the shared prefix
  // is never paid twice) but more than nothing.
  EXPECT_GT(lab_.true_stage2_ms(net, cuts[0], cuts[2]), 0.0);
  EXPECT_LT(lab_.true_stage2_ms(net, cuts[0], cuts[2]), lab_.true_ms(net, cuts[2]));
  EXPECT_THROW(explorer_.operating_point(net, cuts[2], cuts[0], 0.2), std::invalid_argument);
}

TEST_F(CascadeExplorerTest, GoldenFrontDominatesSingleCutsOnTwoTrunks) {
  golden::Metrics metrics;
  int improved = 0;
  for (const zoo::NetId net : {zoo::NetId::kMobileNetV1_025, zoo::NetId::kMobileNetV1_050}) {
    const std::vector<int> cuts = test_cuts(net);
    const std::vector<CascadeOperatingPoint> sweep =
        explorer_.sweep(net, cuts, CascadeExplorer::default_thresholds());
    const std::vector<TradeoffPoint> single_front =
        pareto_frontier(explorer_.single_cut_points(net, cuts));
    ASSERT_FALSE(single_front.empty());

    const bool improves = cascade_improves(sweep, single_front);
    if (improves) ++improved;

    // Combined front: single cuts + cascade points, pareto-filtered.
    std::vector<TradeoffPoint> combined = explorer_.single_cut_points(net, cuts);
    for (const CascadeOperatingPoint& p : sweep) combined.push_back(p.as_tradeoff());
    const std::vector<TradeoffPoint> front = pareto_frontier(combined);

    double best_acc = 0.0, best_acc_latency = 0.0;
    for (const TradeoffPoint& tp : front)
      if (tp.accuracy > best_acc) {
        best_acc = tp.accuracy;
        best_acc_latency = tp.latency_ms;
      }

    const std::string prefix = "cascade/" + zoo::net_name(net) + "/";
    metrics[prefix + "improves"] = improves ? 1.0 : 0.0;
    metrics[prefix + "front_best_accuracy"] = best_acc;
    metrics[prefix + "front_best_latency_ms"] = best_acc_latency;
    // A fixed operating point, pinned end to end (continuous in the
    // measurement stream, so a chaos schedule stays inside tolerance).
    const CascadeOperatingPoint fixed = explorer_.operating_point(net, cuts[0], cuts[2], 0.2);
    metrics[prefix + "fixed/p_escalate"] = fixed.p_escalate;
    metrics[prefix + "fixed/accuracy"] = fixed.accuracy;
    metrics[prefix + "fixed/latency_ms"] = fixed.latency_ms;
  }
  EXPECT_EQ(improved, 2) << "cascade must strictly improve on both zoo trunks";

  const std::string path = std::string(NETCUT_GOLDEN_DIR) + "/cascade_front.json";
  if (golden::regen_requested()) {
    golden::save(path, metrics);
    GTEST_SKIP() << "regenerated " << path;
  }
  const golden::Metrics want = golden::load(path);
  // Latencies carry measurement noise (chaos schedules inflate draws);
  // accuracies and escalation rates are deterministic training artifacts.
  const std::vector<std::string> problems =
      golden::diff(want, metrics, {/*rel=*/0.10, /*abs=*/0.005},
                   {{"cascade/", {/*rel=*/0.10, /*abs=*/0.005}},
                    {"improves", {/*rel=*/0.0, /*abs=*/0.0}}});
  for (const std::string& p : problems) ADD_FAILURE() << p;
}

}  // namespace
}  // namespace netcut::core
