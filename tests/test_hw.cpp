// Device model, measurement protocol, profiler, and trainer-model checks.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "core/trn.hpp"
#include "hw/device.hpp"
#include "hw/measure.hpp"
#include "hw/profiler.hpp"
#include "hw/trainer_model.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/norm.hpp"
#include "zoo/zoo.hpp"

namespace netcut::hw {
namespace {

using nn::Graph;

Graph conv_bn_relu_chain(int blocks) {
  Graph g;
  int x = g.add_input(tensor::Shape::chw(3, 32, 32));
  int c = 3;
  for (int b = 0; b < blocks; ++b) {
    x = g.add(std::make_unique<nn::Conv2D>(c, 16, 3, 1, -1, false), {x},
              "conv" + std::to_string(b));
    x = g.add(std::make_unique<nn::BatchNorm>(16), {x}, "bn" + std::to_string(b));
    x = g.add(std::make_unique<nn::ReLU>(false), {x}, "relu" + std::to_string(b));
    c = 16;
  }
  return g;
}

TEST(DeviceModel, FusionAbsorbsBnRelu) {
  const Graph g = conv_bn_relu_chain(3);
  const auto fused = DeviceModel::fused_away(g);
  int absorbed = 0;
  for (bool f : fused) absorbed += f ? 1 : 0;
  EXPECT_EQ(absorbed, 6);  // 3 BNs + 3 ReLUs

  DeviceModel dev;
  const double t_fused = dev.network_latency_ms(g, Precision::kFp32, true);
  const double t_unfused = dev.network_latency_ms(g, Precision::kFp32, false);
  EXPECT_LT(t_fused, t_unfused);
}

TEST(DeviceModel, Int8FasterThanFp32) {
  const Graph g = zoo::build_trunk(zoo::NetId::kResNet50, 224);
  DeviceModel dev;
  EXPECT_LT(dev.network_latency_ms(g, Precision::kInt8, true),
            dev.network_latency_ms(g, Precision::kFp32, true));
}

TEST(DeviceModel, LatencyMonotoneInDepth) {
  DeviceModel dev;
  double prev = 0.0;
  for (int blocks = 1; blocks <= 4; ++blocks) {
    const double t =
        dev.network_latency_ms(conv_bn_relu_chain(blocks), Precision::kInt8, true);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(DeviceModel, KernelCostsCoverEveryNode) {
  const Graph g = conv_bn_relu_chain(2);
  DeviceModel dev;
  const auto costs = dev.kernel_costs(g, Precision::kInt8, true);
  EXPECT_EQ(static_cast<int>(costs.size()), g.node_count() - 1);
  double total = 0.0;
  for (const KernelCost& kc : costs) total += kc.latency_ms;
  EXPECT_NEAR(total, dev.network_latency_ms(g, Precision::kInt8, true), 1e-12);
}

TEST(DeviceModel, BatchCurveEqualsLatencyQueryBitwise) {
  // The curve serving takes is the latency query computed up front, both
  // for the whole network and for the suffix a cascade's second stage
  // resumes into at a blockwise cut.
  const Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  const std::vector<int> cuts = core::blockwise_cutpoints(trunk);
  const int resume = core::resume_node(trunk, cuts[cuts.size() / 3]);
  ASSERT_GT(resume, 0);
  const DeviceModel dev;
  for (const int r : {0, resume}) {
    const auto curve = dev.batch_curve(trunk, Precision::kInt8, true, 8, r);
    for (int b = 1; b <= 8; ++b) {
      const double want = dev.network_latency_ms(trunk, Precision::kInt8, true, b, r);
      const double got = curve(b);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "resume " << r << " batch " << b;
    }
    EXPECT_THROW(curve(0), std::out_of_range);
    EXPECT_THROW(curve(9), std::out_of_range);
  }
}

TEST(DeviceModel, PerfFactorScalesTheDevice) {
  // A perf factor must be positive; 1.0 is the default device bit for bit,
  // and a half-speed sibling is slower at every batch size.
  EXPECT_THROW(DeviceModel(0.0), std::invalid_argument);
  EXPECT_THROW(DeviceModel(-1.0), std::invalid_argument);
  const Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 224);
  const DeviceModel dev, unit(1.0), half(0.5);
  for (const Precision p : {Precision::kFp32, Precision::kInt8}) {
    for (const int b : {1, 8}) {
      const double want = dev.network_latency_ms(trunk, p, true, b);
      const double got = unit.network_latency_ms(trunk, p, true, b);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << to_string(p) << " batch " << b;
      EXPECT_GT(half.network_latency_ms(trunk, p, true, b), want) << to_string(p) << " batch " << b;
    }
  }
}

TEST(DeviceModel, PaperScaleCalibration) {
  // The qualitative Fig 1 setup: MobileNetV1-0.5 comfortably meets the
  // 0.9 ms deadline; the deep networks miss it.
  DeviceModel dev;
  const double mnv1 = dev.network_latency_ms(
      zoo::build_trunk(zoo::NetId::kMobileNetV1_050, 224), Precision::kInt8, true);
  EXPECT_GT(mnv1, 0.1);
  EXPECT_LT(mnv1, 0.9);
  const double resnet = dev.network_latency_ms(
      zoo::build_trunk(zoo::NetId::kResNet50, 224), Precision::kInt8, true);
  EXPECT_GT(resnet, 0.9);
}

TEST(Measure, ProtocolAveragesAfterWarmup) {
  DeviceModel dev;
  MeasureConfig mc;
  mc.noise_sigma = 0.02;
  mc.faults = &FaultModel::disabled();  // exact protocol counts need a clean device
  LatencyMeasurer meas(mc);
  const Graph g = conv_bn_relu_chain(2);
  const Measurement m = meas.measure(dev.network_latency_ms(g, Precision::kInt8, true));
  const double truth = dev.network_latency_ms(g, Precision::kInt8, true);
  EXPECT_EQ(m.runs, 800);
  // Warm-up absorbed: mean within a few percent of the true latency.
  EXPECT_NEAR(m.mean_ms, truth, truth * 0.03);
  EXPECT_GT(m.stdev_ms, 0.0);
  EXPECT_LE(m.min_ms, m.mean_ms);
  EXPECT_GE(m.max_ms, m.mean_ms);
}

TEST(Measure, ColdRunsAreSlower) {
  LatencyMeasurer meas;
  util::Rng rng(1);
  const double cold = meas.simulate_run_ms(1.0, 0, rng);
  double warm_sum = 0.0;
  for (int i = 0; i < 50; ++i) warm_sum += meas.simulate_run_ms(1.0, 500 + i, rng);
  EXPECT_GT(cold, warm_sum / 50 * 1.3);
}

TEST(Measure, DeterministicAcrossInstances) {
  DeviceModel dev;
  const Graph g = conv_bn_relu_chain(2);
  LatencyMeasurer a, b;
  EXPECT_DOUBLE_EQ(a.measure(dev.network_latency_ms(g, Precision::kInt8, true)).mean_ms,
                   b.measure(dev.network_latency_ms(g, Precision::kInt8, true)).mean_ms);
}

TEST(Profiler, LayerSumExceedsEndToEnd) {
  // The event-overhead artifact that motivates the paper's ratio formula.
  DeviceModel dev;
  LatencyMeasurer meas;
  LayerProfiler prof;
  const Graph g = zoo::build_trunk(zoo::NetId::kMobileNetV2_100, 224);
  const LatencyTable t =
      prof.profile("mnv2", meas.measure(dev.network_latency_ms(g, Precision::kInt8, true)).mean_ms,
                   dev.kernel_costs(g, Precision::kInt8, true));
  EXPECT_GT(t.layer_sum_ms(), t.end_to_end_ms);
  EXPECT_LT(t.layer_sum_ms(), t.end_to_end_ms * 1.5);
}

TEST(Profiler, FusedLayersReportZero) {
  DeviceModel dev;
  LatencyMeasurer meas;
  LayerProfiler prof;
  const Graph g = conv_bn_relu_chain(2);
  const LatencyTable t =
      prof.profile("chain", meas.measure(dev.network_latency_ms(g, Precision::kInt8, true)).mean_ms,
                   dev.kernel_costs(g, Precision::kInt8, true));
  int zero_rows = 0;
  for (const ProfiledLayer& l : t.layers)
    if (l.fused_away) {
      EXPECT_DOUBLE_EQ(l.latency_ms, 0.0);
      ++zero_rows;
    }
  EXPECT_EQ(zero_rows, 4);
}

TEST(TrainerModel, HoursScaleWithNetworkSize) {
  const Graph small = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 224);
  const Graph big = zoo::build_trunk(zoo::NetId::kResNet50, 224);
  const double small_hours = training_hours(static_cast<double>(small.total_cost().flops));
  EXPECT_LT(small_hours, training_hours(static_cast<double>(big.total_cost().flops)));
  EXPECT_GT(small_hours, 0.0);
}

TEST(TrainerModel, PaperScaleTotalHours) {
  // The 7 full networks alone should land within the same order as the
  // paper's per-network training times (~1 hour each on a K20m).
  double total = 0.0;
  for (auto id : zoo::all_nets())
    total += training_hours(static_cast<double>(
        zoo::build_trunk(id, zoo::native_resolution(id)).total_cost().flops));
  EXPECT_GT(total, 2.0);
  EXPECT_LT(total, 60.0);
}

}  // namespace
}  // namespace netcut::hw
