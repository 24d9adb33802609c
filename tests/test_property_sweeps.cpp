// Parameterized property sweeps: each suite pins an invariant across a grid
// of configurations (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <cmath>

#include "hw/device.hpp"
#include "ml/svr.hpp"
#include "nn/conv.hpp"
#include "nn/gradcheck.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "nn/pooling.hpp"
#include "quant/quantize.hpp"
#include "quant_oracle.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "zoo/zoo.hpp"

namespace netcut {
namespace {

using nn::Graph;
using tensor::Shape;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// Convolution forward/backward consistency across hyperparameter grid
// ---------------------------------------------------------------------------

struct ConvCase {
  int in_c, out_c, kh, kw, stride, size;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

double sum_loss(const Tensor& y) {
  double s = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) s += 0.5 * y[i] * y[i];
  return s;
}

Tensor sum_loss_grad(const Tensor& y) { return y; }

TEST_P(ConvSweep, GradientsMatchFiniteDifferences) {
  const ConvCase c = GetParam();
  util::Rng rng(101);
  Graph g;
  const int in = g.add_input(Shape::chw(c.in_c, c.size, c.size));
  auto conv = std::make_unique<nn::Conv2D>(c.in_c, c.out_c, c.kh, c.kw, c.stride,
                                           (c.kh - 1) / 2, (c.kw - 1) / 2, true);
  for (auto* p : conv->params()) *p = Tensor::randn(p->shape(), rng, 0.4f);
  g.add(std::move(conv), {in}, "conv");
  nn::Network net(std::move(g));

  const Tensor x = Tensor::randn(Shape::chw(c.in_c, c.size, c.size), rng, 0.7f);
  const auto input_r = nn::check_input_gradient(net, x, sum_loss, sum_loss_grad);
  EXPECT_LT(input_r.max_rel_error, 2e-2);
  const auto param_r = nn::check_param_gradients(net, x, sum_loss, sum_loss_grad, 1e-3, 8);
  EXPECT_LT(param_r.max_rel_error, 2e-2);
}

TEST_P(ConvSweep, OutputShapeMatchesFormula) {
  const ConvCase c = GetParam();
  nn::Conv2D conv(c.in_c, c.out_c, c.kh, c.kw, c.stride, (c.kh - 1) / 2, (c.kw - 1) / 2,
                  false);
  const Shape out = conv.output_shape({Shape::chw(c.in_c, c.size, c.size)});
  EXPECT_EQ(out[0], c.out_c);
  EXPECT_EQ(out[1], (c.size + 2 * ((c.kh - 1) / 2) - c.kh) / c.stride + 1);
  EXPECT_EQ(out[2], (c.size + 2 * ((c.kw - 1) / 2) - c.kw) / c.stride + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 1, 1, 1, 5}, ConvCase{2, 3, 3, 3, 1, 6},
                      ConvCase{3, 2, 3, 3, 2, 7}, ConvCase{2, 2, 5, 5, 1, 8},
                      ConvCase{2, 4, 1, 7, 1, 9}, ConvCase{4, 2, 7, 1, 1, 9},
                      ConvCase{3, 3, 3, 3, 2, 9}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      const ConvCase& c = info.param;
      return "i" + std::to_string(c.in_c) + "o" + std::to_string(c.out_c) + "k" +
             std::to_string(c.kh) + "x" + std::to_string(c.kw) + "s" +
             std::to_string(c.stride) + "n" + std::to_string(c.size);
    });

// ---------------------------------------------------------------------------
// Pooling invariants across modes / kernels / strides
// ---------------------------------------------------------------------------

struct PoolCase {
  nn::Pool2D::Mode mode;
  int kernel, stride, size;
};

class PoolSweep : public ::testing::TestWithParam<PoolCase> {};

TEST_P(PoolSweep, OutputBoundedByInputRange) {
  const PoolCase c = GetParam();
  util::Rng rng(11);
  const Tensor x = Tensor::randn(Shape::chw(3, c.size, c.size), rng);
  nn::Pool2D pool(c.mode, c.kernel, c.stride);
  const Tensor y = pool.forward({&x}, false);
  EXPECT_LE(y.max(), x.max() + 1e-6f);
  EXPECT_GE(y.min(), x.min() - 1e-6f);
}

TEST_P(PoolSweep, ConstantInputIsPreserved) {
  const PoolCase c = GetParam();
  Tensor x(Shape::chw(2, c.size, c.size), 3.25f);
  nn::Pool2D pool(c.mode, c.kernel, c.stride);
  const Tensor y = pool.forward({&x}, false);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], 3.25f);
}

TEST_P(PoolSweep, BackwardConservesGradientMassForAvg) {
  const PoolCase c = GetParam();
  if (c.mode != nn::Pool2D::Mode::kAvg) GTEST_SKIP();
  util::Rng rng(12);
  const Tensor x = Tensor::randn(Shape::chw(1, c.size, c.size), rng);
  nn::Pool2D pool(c.mode, c.kernel, c.stride, 0);  // no padding: windows tile
  const Tensor y = pool.forward({&x}, true);
  Tensor gy(y.shape(), 1.0f);
  const auto gx = pool.backward(gy);
  // Sum of distributed gradients equals the number of output cells.
  EXPECT_NEAR(gx[0].sum(), static_cast<float>(y.numel()), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PoolSweep,
    ::testing::Values(PoolCase{nn::Pool2D::Mode::kMax, 2, 2, 8},
                      PoolCase{nn::Pool2D::Mode::kAvg, 2, 2, 8},
                      PoolCase{nn::Pool2D::Mode::kMax, 3, 2, 9},
                      PoolCase{nn::Pool2D::Mode::kAvg, 3, 1, 7},
                      PoolCase{nn::Pool2D::Mode::kMax, 3, 1, 5},
                      PoolCase{nn::Pool2D::Mode::kAvg, 2, 1, 6}),
    [](const ::testing::TestParamInfo<PoolCase>& info) {
      const PoolCase& c = info.param;
      return std::string(c.mode == nn::Pool2D::Mode::kMax ? "max" : "avg") + "k" +
             std::to_string(c.kernel) + "s" + std::to_string(c.stride) + "n" +
             std::to_string(c.size);
    });

// ---------------------------------------------------------------------------
// Quantization round-trip error bound across ranges
// ---------------------------------------------------------------------------

struct QuantCase {
  float lo, hi;
};

class QuantSweep : public ::testing::TestWithParam<QuantCase> {};

TEST_P(QuantSweep, RoundTripWithinHalfStepInsideRange) {
  const QuantCase c = GetParam();
  util::Rng rng(13);
  const Tensor x = Tensor::uniform(Shape::vec(512), rng, c.lo, c.hi);
  const quant::QuantParams p = quant::QuantParams::from_range(c.lo, c.hi);
  EXPECT_LE(quant::quantization_error(x, p), p.scale * 0.5f + 1e-6f);
}

TEST_P(QuantSweep, ZeroIsExact) {
  const QuantCase c = GetParam();
  const quant::QuantParams p = quant::QuantParams::from_range(c.lo, c.hi);
  EXPECT_FLOAT_EQ(quant::dequantize_value(quant::quantize_value(0.0f, p), p), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Grid, QuantSweep,
                         ::testing::Values(QuantCase{-1.0f, 1.0f}, QuantCase{0.0f, 6.0f},
                                           QuantCase{-0.1f, 0.1f}, QuantCase{-8.0f, 2.0f},
                                           QuantCase{0.0f, 100.0f}),
                         [](const ::testing::TestParamInfo<QuantCase>& info) {
                           return "case" + std::to_string(info.index);
                         });

// ---------------------------------------------------------------------------
// Device-model invariants across the whole zoo
// ---------------------------------------------------------------------------

class ZooDeviceSweep : public ::testing::TestWithParam<zoo::NetId> {};

TEST_P(ZooDeviceSweep, FusionAndInt8AlwaysHelp) {
  const zoo::NetId id = GetParam();
  const Graph g = zoo::build_trunk(id, zoo::native_resolution(id));
  hw::DeviceModel dev;
  const double fp32_unfused = dev.network_latency_ms(g, hw::Precision::kFp32, false);
  const double fp32_fused = dev.network_latency_ms(g, hw::Precision::kFp32, true);
  const double int8_fused = dev.network_latency_ms(g, hw::Precision::kInt8, true);
  EXPECT_LT(fp32_fused, fp32_unfused);
  EXPECT_LT(int8_fused, fp32_fused);
  EXPECT_GT(int8_fused, 0.05);  // nothing is free
}

TEST_P(ZooDeviceSweep, BlockwiseTrimMonotonicallyReducesTrueLatency) {
  const zoo::NetId id = GetParam();
  const Graph g = zoo::build_trunk(id, zoo::native_resolution(id));
  hw::DeviceModel dev;
  double prev = 0.0;
  for (const nn::BlockInfo& b : g.blocks()) {
    const double t = dev.network_latency_ms(g.prefix(b.last_node), hw::Precision::kInt8, true);
    EXPECT_GT(t, prev) << "block " << b.name;
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllNets, ZooDeviceSweep, ::testing::ValuesIn(zoo::all_nets()),
                         [](const ::testing::TestParamInfo<zoo::NetId>& info) {
                           std::string n = zoo::net_name(info.param);
                           for (char& ch : n)
                             if (ch == '-' || ch == '.') ch = '_';
                           return n;
                         });

// ---------------------------------------------------------------------------
// SVR tube-width sweep: in-sample residuals always within epsilon
// ---------------------------------------------------------------------------

class SvrEpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(SvrEpsilonSweep, ResidualsRespectTube) {
  const double eps = GetParam();
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double t = 2.0 * i / 50.0;
    x.push_back({t});
    y.push_back(std::cos(2.0 * t) + 0.5 * t);
  }
  ml::SvrConfig cfg;
  cfg.gamma = 2.0;
  cfg.c = 1000.0;
  cfg.epsilon = eps;
  ml::Svr svr(cfg);
  svr.fit(x, y);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_LE(std::abs(svr.predict(x[i]) - y[i]), eps + 1e-3);
  // Wider tubes never need more support vectors than narrower ones would.
  EXPECT_GT(svr.support_vector_count(), 0);
  EXPECT_LE(svr.support_vector_count(), 50);
}

INSTANTIATE_TEST_SUITE_P(Tubes, SvrEpsilonSweep, ::testing::Values(0.005, 0.02, 0.1, 0.3),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "eps" + std::to_string(info.index);
                         });

}  // namespace
}  // namespace netcut
