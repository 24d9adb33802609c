// Latency estimators against the simulated device's ground truth. Most
// cases use the cheap MobileNet graphs; the SVR-vs-linear ablation needs
// the full heterogeneous zoo (as in the fig09 bench), and so does the check
// that LatencyLab answers exactly what a built TRN would.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator.hpp"
#include "hw/trainer_model.hpp"
#include "nn/conv.hpp"
#include "util/stats.hpp"

namespace netcut::core {
namespace {

class EstimatorTest : public ::testing::Test {
 protected:
  LatencyLab lab_;
};

TEST_F(EstimatorTest, FeaturesShrinkWithCut) {
  const zoo::NetId net = zoo::NetId::kMobileNetV1_050;
  const auto cuts = lab_.blockwise(net);
  const TrnFeatures full = compute_trn_features(lab_, net, lab_.full_cut(net));
  const TrnFeatures trimmed = compute_trn_features(lab_, net, cuts[4]);
  EXPECT_LT(trimmed.gflops, full.gflops);
  EXPECT_LT(trimmed.mparams, full.mparams);
  EXPECT_LT(trimmed.layer_count, full.layer_count);
  EXPECT_LT(trimmed.filter_size_sum, full.filter_size_sum);
  EXPECT_DOUBLE_EQ(trimmed.base_latency_ms, full.base_latency_ms);
}

TEST_F(EstimatorTest, ProfilerEstimateCloseToMeasured) {
  ProfilerEstimator est(lab_);
  const zoo::NetId net = zoo::NetId::kMobileNetV1_050;
  std::vector<double> estimates, truths;
  for (int cut : lab_.blockwise(net)) {
    estimates.push_back(est.estimate_ms(net, cut));
    truths.push_back(lab_.measured_ms(net, cut));
  }
  // The paper reports ~3.5% mean relative error for this estimator.
  EXPECT_LT(util::mean_relative_error(estimates, truths), 0.15);
}

TEST_F(EstimatorTest, ProfilerFullNetworkEstimateIsEndToEnd) {
  ProfilerEstimator est(lab_);
  const zoo::NetId net = zoo::NetId::kMobileNetV1_025;
  const double est_full = est.estimate_ms(net, lab_.full_cut(net));
  const double measured = lab_.measured_ms(net, lab_.full_cut(net));
  // No layers removed -> the estimate is exactly the profiled end-to-end.
  EXPECT_NEAR(est_full, measured, measured * 0.05);
}

TEST_F(EstimatorTest, ProfilerEstimateMonotoneInCut) {
  ProfilerEstimator est(lab_);
  const zoo::NetId net = zoo::NetId::kMobileNetV2_100;
  const auto cuts = lab_.blockwise(net);
  double prev = 0.0;
  for (int cut : cuts) {
    const double e = est.estimate_ms(net, cut);
    EXPECT_GT(e, prev);
    prev = e;
  }
}

TEST_F(EstimatorTest, AnalyticalSvrBeatsLinearBaseline) {
  // Train on 20% of the TRNs, test on the rest — the paper's split
  // (Section V-B2). The architecture set must be heterogeneous: within a
  // single family latency is nearly affine in the features and a linear
  // model suffices; the RBF kernel's advantage (the paper's 23.81% vs
  // 4.28% ablation) appears across families.
  std::vector<LatencySample> samples;
  for (zoo::NetId net : zoo::all_nets()) {
    for (int cut : lab_.blockwise(net)) {
      LatencySample s;
      s.base = net;
      s.cut_node = cut;
      s.features = compute_trn_features(lab_, net, cut);
      s.measured_ms = lab_.measured_ms(net, cut);
      samples.push_back(std::move(s));
    }
  }
  std::vector<LatencySample> train, test;
  for (std::size_t i = 0; i < samples.size(); ++i)
    (i % 5 == 2 ? train : test).push_back(samples[i]);

  AnalyticalEstimator svr(lab_, /*grid_search=*/true);
  svr.fit(train);
  LinearEstimator lin(lab_);
  lin.fit(train);

  std::vector<double> svr_pred, lin_pred, truth;
  for (const LatencySample& s : test) {
    svr_pred.push_back(svr.predict(s.features));
    lin_pred.push_back(lin.predict(s.features));
    truth.push_back(s.measured_ms);
  }
  const double svr_err = util::mean_relative_error(svr_pred, truth);
  const double lin_err = util::mean_relative_error(lin_pred, truth);
  EXPECT_LT(svr_err, 0.08);
  EXPECT_LT(svr_err * 2.0, lin_err);
}

TEST_F(EstimatorTest, EstimatorNamesAreStable) {
  ProfilerEstimator p(lab_);
  AnalyticalEstimator a(lab_);
  LinearEstimator l(lab_);
  EXPECT_EQ(p.name(), "profiler");
  EXPECT_EQ(a.name(), "analytical-svr");
  EXPECT_EQ(l.name(), "linear-regression");
}

TEST_F(EstimatorTest, UnfittedAnalyticalThrows) {
  AnalyticalEstimator a(lab_);
  EXPECT_THROW(a.estimate_ms(zoo::NetId::kMobileNetV1_025, 5), std::logic_error);
  EXPECT_THROW(a.fit({}), std::invalid_argument);
}

TEST_F(EstimatorTest, LabMeasurementsMemoized) {
  const zoo::NetId net = zoo::NetId::kMobileNetV1_025;
  const int cut = lab_.blockwise(net)[5];
  const double a = lab_.measured_ms(net, cut);
  const double b = lab_.measured_ms(net, cut);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_NEAR(a, lab_.true_ms(net, cut), a * 0.05);
}

TEST_F(EstimatorTest, LabNamesFollowPaperConvention) {
  const zoo::NetId net = zoo::NetId::kMobileNetV1_050;
  const std::string full = lab_.name(net, lab_.full_cut(net));
  EXPECT_EQ(full, "MobileNetV1-0.50/81");  // 82 nodes - input
  const auto cuts = lab_.blockwise(net);
  EXPECT_EQ(lab_.name(net, cuts[0]), "MobileNetV1-0.50/9");  // stem + first block
}

// LatencyLab prices a TRN from the trunk's kernel costs and a head stub,
// never building it. Every answer must equal, bit for bit, the one the
// built TRN gives: build_trn priced by a DeviceModel, measured by a
// LatencyMeasurer on the same label sequence, and profiled by a
// LayerProfiler. Counting helpers must match Graph::prefix's node counts.
class LabReference : public ::testing::TestWithParam<zoo::NetId> {};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST_P(LabReference, EveryAnswerBitwiseEqualsTheBuiltTrn) {
  const zoo::NetId net = GetParam();
  const nn::Graph trunk = zoo::build_trunk(net, zoo::native_resolution(net));
  for (const auto& [precision, fuse] :
       {std::pair{hw::Precision::kInt8, true}, std::pair{hw::Precision::kFp32, false}}) {
    SCOPED_TRACE(std::string(hw::to_string(precision)) + (fuse ? " fused" : " unfused"));
    LabConfig cfg;
    cfg.precision = precision;
    cfg.fuse = fuse;
    LatencyLab lab(cfg);
    const hw::DeviceModel dev;
    hw::LatencyMeasurer meas(cfg.measure);  // draws the lab's label sequence
    hw::LayerProfiler prof(cfg.profiler);
    util::Rng rng(1);

    // Deepest first: the full cut's measurement is the features' base
    // latency, so every later measured_ms call takes a fresh label.
    std::vector<int> cuts = lab.blockwise(net);
    ASSERT_EQ(cuts.back(), lab.full_cut(net));
    std::map<int, int> resume;  // cut -> its TRN id, counted on the built prefix
    for (int cut : cuts) resume[cut] = trunk.prefix(cut).node_count() - 1;
    double base_ms = 0.0;
    for (auto d = cuts.rbegin(); d != cuts.rend(); ++d) {
      SCOPED_TRACE("cut " + std::to_string(*d));
      const nn::Graph trn = build_trn(trunk, *d, HeadConfig{}, rng);
      const double truth = dev.network_latency_ms(trn, precision, fuse);
      EXPECT_TRUE(same_bits(lab.true_ms(net, *d), truth));
      const double measured = meas.measure(truth).mean_ms;
      EXPECT_TRUE(same_bits(lab.measured_ms(net, *d), measured));
      if (*d == lab.full_cut(net)) base_ms = measured;
      EXPECT_TRUE(same_bits(lab.training_hours(net, *d),
                            hw::training_hours(static_cast<double>(trn.total_cost().flops))));

      const TrnFeatures f = compute_trn_features(lab, net, *d);
      const nn::LayerCost cost = trn.total_cost();
      double filter_sum = 0.0;
      for (int id = 1; id < trn.node_count(); ++id) {
        const nn::Layer& layer = *trn.node(id).layer;
        if (layer.kind() == nn::LayerKind::kConv2D) {
          const auto& conv = static_cast<const nn::Conv2D&>(layer);
          filter_sum += conv.kernel_h() * conv.kernel_w();
        } else if (layer.kind() == nn::LayerKind::kDepthwiseConv2D) {
          const auto& conv = static_cast<const nn::DepthwiseConv2D&>(layer);
          filter_sum += conv.kernel() * conv.kernel();
        }
      }
      const TrnFeatures ref{base_ms, static_cast<double>(cost.flops) / 1e9,
                            static_cast<double>(cost.params) / 1e6,
                            static_cast<double>(trn.layer_count()), filter_sum};
      const std::vector<double> got = f.as_row(), want = ref.as_row();
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_TRUE(same_bits(got[i], want[i])) << "feature " << i;

      for (auto s = d + 1; s != cuts.rend(); ++s) {  // every shallower cut
        const double stage2 = dev.network_latency_ms(trn, precision, fuse, 1, resume[*s]);
        EXPECT_TRUE(same_bits(lab.true_stage2_ms(net, *s, *d), stage2)) << "shallow " << *s;
        EXPECT_TRUE(same_bits(lab.measured_stage2_ms(net, *s, *d), meas.measure(stage2).mean_ms))
            << "shallow " << *s;
      }
    }

    const nn::Graph full = build_trn(trunk, lab.full_cut(net), HeadConfig{}, rng);
    const hw::LatencyTable want =
        prof.profile(zoo::net_name(net),
                     meas.measure(dev.network_latency_ms(full, precision, fuse)).mean_ms,
                     dev.kernel_costs(full, precision, fuse));
    const hw::LatencyTable& got = lab.profile(net);
    EXPECT_EQ(got.network, want.network);
    EXPECT_TRUE(same_bits(got.end_to_end_ms, want.end_to_end_ms));
    ASSERT_EQ(got.layers.size(), want.layers.size());
    for (std::size_t i = 0; i < want.layers.size(); ++i) {
      EXPECT_EQ(got.layers[i].node, want.layers[i].node);
      EXPECT_EQ(got.layers[i].name, want.layers[i].name);
      EXPECT_EQ(got.layers[i].fused_away, want.layers[i].fused_away);
      EXPECT_TRUE(same_bits(got.layers[i].latency_ms, want.layers[i].latency_ms)) << i;
      EXPECT_TRUE(same_bits(got.layers[i].confidence, want.layers[i].confidence)) << i;
    }
  }

  LatencyLab lab;
  for (int cut : lab.iterative(net)) {
    const nn::Graph prefix = trunk.prefix(cut);
    EXPECT_EQ(layers_remaining(trunk, cut), prefix.layer_count()) << cut;
    EXPECT_EQ(lab.layers_remaining(net, cut), prefix.layer_count()) << cut;
    EXPECT_EQ(resume_node(trunk, cut), prefix.node_count() - 1) << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(AllNets, LabReference, ::testing::ValuesIn(zoo::all_nets()),
                         [](const ::testing::TestParamInfo<zoo::NetId>& info) {
                           std::string name = zoo::net_name(info.param);
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return name;
                         });

}  // namespace
}  // namespace netcut::core
