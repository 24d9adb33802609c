// Quantization: round-trip properties, BN folding equivalence, calibration,
// the integer pass vs the simulated-quantization reference.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "core/trn.hpp"
#include "data/hands.hpp"
#include "data/pretrained.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/combine.hpp"
#include "nn/init.hpp"
#include "nn/norm.hpp"
#include "quant/calibrate.hpp"
#include "quant/fusion.hpp"
#include "quant/qnetwork.hpp"
#include "quant/quantize.hpp"
#include "hw/device.hpp"
#include "quant_oracle.hpp"
#include "tensor/backend.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "zoo/zoo.hpp"

namespace netcut::quant {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(QuantParams, RangeIncludesZeroAndRoundTrips) {
  const QuantParams p = QuantParams::from_range(0.5f, 4.0f);  // lo pulled to 0
  EXPECT_EQ(quantize_value(0.0f, p), p.zero_point);
  EXPECT_NEAR(dequantize_value(quantize_value(0.0f, p), p), 0.0f, 1e-6f);
  EXPECT_NEAR(dequantize_value(quantize_value(3.7f, p), p), 3.7f, p.scale);
}

TEST(QuantParams, ErrorBoundedByHalfStep) {
  util::Rng rng(1);
  const Tensor x = Tensor::uniform(Shape::vec(1000), rng, -2.0f, 6.0f);
  const QuantParams p = QuantParams::from_range(-2.0f, 6.0f);
  EXPECT_LE(quantization_error(x, p), p.scale * 0.5f + 1e-6f);
}

TEST(QuantParams, ClampsOutOfRange) {
  const QuantParams p = QuantParams::from_range(-1.0f, 1.0f);
  EXPECT_EQ(quantize_value(100.0f, p), 255);
  EXPECT_EQ(quantize_value(-100.0f, p), 0);
}

TEST(QuantParams, QuantizeRowMatchesQuantizeValue) {
  // quantize_row rounds in float where quantize_value calls lround; the two
  // must agree bit for bit: on exact halves and just below them, around
  // 2^24 and 2^30, on huge, infinite and NaN inputs, and on random values.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> xs = {0.0f,        -0.0f,        0.5f,       -0.5f,      1.5f,
                           -1.5f,       2.5f,         -2.5f,      0.49999997f, -0.49999997f,
                           8388607.5f,  -8388607.5f,  16777217.0f, 0x1p30f,    -0x1p30f,
                           0x1p31f,     1e20f,        -1e20f,     1e-40f,      inf,
                           -inf,        std::nanf("")};
  util::Rng rng(27);
  for (int i = 0; i < 4000; ++i) xs.push_back(static_cast<float>(rng.normal()) * 300.0f);
  for (int i = 0; i < 1000; ++i) xs.push_back(static_cast<float>(rng.uniform_int(-600, 600)) * 0.5f);
  for (const float scale : {1.0f, 0.5f, 0.0173f, 3.0f, 1e-30f})
    for (const int zp : {0, 7, 128, 255}) {
      QuantParams p;
      p.scale = scale;
      p.zero_point = zp;
      std::vector<std::uint8_t> got(xs.size());
      quantize_row(xs.data(), xs.size(), p, got.data());
      for (std::size_t i = 0; i < xs.size(); ++i)
        ASSERT_EQ(got[i], quantize_value(xs[i], p))
            << "x " << xs[i] << " scale " << scale << " zero point " << zp;
    }
}

TEST(ChannelQuant, PerChannelScalesAndBound) {
  util::Rng rng(2);
  Tensor w = Tensor::randn(Shape{4, 3, 3, 3}, rng, 0.2f);
  // Give channel 2 a much larger range.
  for (int i = 0; i < 27; ++i) w[2 * 27 + i] *= 20.0f;
  const ChannelQuant q = quantize_weights_per_channel(w);
  EXPECT_GT(q.scales[2], q.scales[0] * 5.0f);
  const Tensor restored = dequantize_weights(q, w.shape());
  for (int o = 0; o < 4; ++o)
    for (int i = 0; i < 27; ++i)
      EXPECT_NEAR(restored[o * 27 + i], w[o * 27 + i], q.scales[static_cast<std::size_t>(o)]);
}

TEST(Fusion, FoldedGraphIsNumericallyEquivalent) {
  util::Rng rng(3);
  nn::Graph g;
  int x = g.add_input(Shape::chw(3, 8, 8));
  auto conv = std::make_unique<nn::Conv2D>(3, 6, 3, 1, -1, false);
  nn::he_init_conv(conv->weight(), rng);
  x = g.add(std::move(conv), {x}, "conv");
  auto bn = std::make_unique<nn::BatchNorm>(6);
  for (int c = 0; c < 6; ++c) {
    bn->gamma()[c] = static_cast<float>(rng.uniform(0.5, 1.5));
    bn->beta()[c] = static_cast<float>(rng.normal(0.0, 0.3));
    bn->running_mean()[c] = static_cast<float>(rng.normal(0.0, 0.5));
    bn->running_var()[c] = static_cast<float>(rng.uniform(0.3, 2.0));
  }
  x = g.add(std::move(bn), {x}, "bn");
  g.add(std::make_unique<nn::ReLU>(false), {x}, "relu");

  FusionReport report;
  nn::Graph folded = fold_batchnorm(g, &report);
  EXPECT_EQ(report.batchnorms_folded, 1);
  EXPECT_EQ(report.nodes_after, report.nodes_before - 1);

  nn::Network orig(std::move(g)), fused(std::move(folded));
  const Tensor input = Tensor::randn(Shape::chw(3, 8, 8), rng, 0.7f);
  EXPECT_LT(tensor::max_abs_diff(orig.forward(input), fused.forward(input)), 1e-4f);
}

TEST(Fusion, WholeTrunkFoldsAndMatches) {
  nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  data::PretrainedConfig pc;
  pc.source_images = 40;
  pc.epochs = 1;  // weights just need to be non-degenerate here
  data::generate_pretrained_weights(trunk, pc);
  // Give BNs non-trivial running stats.
  util::Rng rng(5);
  for (int id = 1; id < trunk.node_count(); ++id) {
    if (trunk.node(id).layer->kind() != nn::LayerKind::kBatchNorm) continue;
    auto& bn = static_cast<nn::BatchNorm&>(*trunk.node(id).layer);
    for (int c = 0; c < bn.channels(); ++c) {
      bn.running_mean()[c] = static_cast<float>(rng.normal(0.0, 0.2));
      bn.running_var()[c] = static_cast<float>(rng.uniform(0.5, 1.5));
    }
  }

  FusionReport report;
  nn::Graph folded = fold_batchnorm(trunk, &report);
  EXPECT_EQ(report.batchnorms_folded, 27);  // stem + 13 blocks * 2

  nn::Network a(std::move(trunk)), b(std::move(folded));
  const Tensor x = Tensor::randn(Shape::chw(3, 24, 24), rng, 0.5f);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  EXPECT_LT(tensor::max_abs_diff(ya, yb) / std::max(1.0f, ya.max()), 2e-3f);
}

TEST(Fusion, SkipsSharedProducers) {
  // BN whose producer feeds two consumers must not fold.
  nn::Graph g;
  int in = g.add_input(Shape::chw(2, 4, 4));
  int conv = g.add(std::make_unique<nn::Conv2D>(2, 2, 1, 1), {in}, "conv");
  int bn = g.add(std::make_unique<nn::BatchNorm>(2), {conv}, "bn");
  g.add(std::make_unique<nn::Add>(2), {conv, bn}, "add");  // conv used twice
  FusionReport report;
  fold_batchnorm(g, &report);
  EXPECT_EQ(report.batchnorms_folded, 0);
}

TEST(Calibrate, ObservedRangesCoverActivations) {
  util::Rng rng(4);
  nn::Graph g;
  int x = g.add_input(Shape::chw(1, 4, 4));
  auto conv = std::make_unique<nn::Conv2D>(1, 2, 3, 1);
  nn::he_init_conv(conv->weight(), rng);
  g.add(std::move(conv), {x}, "conv");
  nn::Network net(std::move(g));

  std::vector<Tensor> imgs;
  for (int i = 0; i < 10; ++i) imgs.push_back(Tensor::randn(Shape::chw(1, 4, 4), rng));
  std::vector<const Tensor*> ptrs;
  for (const auto& t : imgs) ptrs.push_back(&t);

  CalibrationConfig cc;
  cc.policy = ScalePolicy::kMinMax;
  const ActivationScales scales = calibrate_activations(net, ptrs, cc);
  ASSERT_EQ(scales.size(), 2u);  // input + conv
  // Re-run an image: all activations must quantize within range (no clamp
  // beyond one step at the extremes).
  const Tensor y = net.forward(imgs[0]);
  const QuantParams p = scales.at(1);
  EXPECT_LE(quantization_error(y, p), p.scale * 0.51f);
}

TEST(QuantizedNetwork, AccuracyImpactIsSmall) {
  util::Rng rng(6);
  nn::Graph g;
  int x = g.add_input(Shape::chw(2, 6, 6));
  auto conv = std::make_unique<nn::Conv2D>(2, 4, 3, 1);
  nn::he_init_conv(conv->weight(), rng);
  x = g.add(std::move(conv), {x}, "conv");
  x = g.add(std::make_unique<nn::ReLU>(false), {x}, "relu");
  auto conv2 = std::make_unique<nn::Conv2D>(4, 3, 1, 1);
  nn::he_init_conv(conv2->weight(), rng);
  g.add(std::move(conv2), {x}, "conv2");
  nn::Network ref(g);  // copy keeps fp32 weights

  QuantizedNetwork qnet(std::move(g));
  std::vector<Tensor> imgs;
  for (int i = 0; i < 12; ++i) imgs.push_back(Tensor::randn(Shape::chw(2, 6, 6), rng, 0.7f));
  std::vector<const Tensor*> ptrs;
  for (const auto& t : imgs) ptrs.push_back(&t);
  qnet.calibrate(ptrs);

  const Tensor probe = Tensor::randn(Shape::chw(2, 6, 6), rng, 0.7f);
  const Tensor yf = ref.forward(probe);
  const Tensor yq = simulated_forward(qnet, probe);
  const float scale = std::max(std::abs(yf.max()), std::abs(yf.min()));
  EXPECT_LT(tensor::max_abs_diff(yf, yq), 0.1f * scale + 0.05f);
  EXPECT_GT(tensor::max_abs_diff(yf, yq), 0.0f);  // quantization is lossy
}

/// Runs `layer` as a one-node graph through forward_int8 and through the
/// simulated-quantization reference, both calibrated (min/max) on `x`
/// alone, and returns the largest output gap in output quantization steps.
float int8_gap_in_steps(std::unique_ptr<nn::Layer> layer, const Tensor& x) {
  nn::Graph g;
  const int in = g.add_input(x.shape());
  const int out = g.add(std::move(layer), {in}, "layer");
  QuantizedNetwork qnet(std::move(g));
  CalibrationConfig cc;
  cc.policy = ScalePolicy::kMinMax;
  qnet.calibrate({&x}, cc);
  const Tensor want = simulated_forward(qnet, x);
  const Tensor got = qnet.forward_int8(x);
  EXPECT_EQ(want.shape(), got.shape());
  return tensor::max_abs_diff(want, got) / qnet.scales().at(out).scale;
}

TEST(Int8Kernels, ConvMatchesFloatReferenceOnQuantizedWeights) {
  // A strided, padded 3x3 conv with bias: im2col over uint8 activations
  // with zero-point padding, the s8u8 GEMM, and per-channel requantization.
  util::Rng rng(7);
  auto conv = std::make_unique<nn::Conv2D>(2, 3, 3, 2);
  nn::he_init_conv(conv->weight(), rng);
  for (int o = 0; o < 3; ++o) conv->bias()[o] = static_cast<float>(rng.normal(0.0, 0.1));
  const Tensor x = Tensor::uniform(Shape::chw(2, 7, 7), rng, -1.0f, 1.0f);
  EXPECT_LE(int8_gap_in_steps(std::move(conv), x), 1.0f);
}

TEST(Int8Kernels, DepthwiseMatchesFloatReference) {
  // A strided, padded 3x3 depthwise with bias over 19 channels (one full
  // channel block and a 3-channel tail): the zero-point-padded integer tile,
  // per-channel weights and rowsums, and the shared requantization.
  util::Rng rng(9);
  auto dw = std::make_unique<nn::DepthwiseConv2D>(19, 3, 2);
  nn::he_init_conv(dw->weight(), rng);
  for (int c = 0; c < 19; ++c) dw->bias()[c] = static_cast<float>(rng.normal(0.0, 0.1));
  const Tensor x = Tensor::uniform(Shape::chw(19, 9, 9), rng, -1.0f, 1.0f);
  EXPECT_LE(int8_gap_in_steps(std::move(dw), x), 1.0f);
}

TEST(Int8Kernels, DepthwiseSteadyStateAcquiresOnlyTheOutput) {
  // conv -> depthwise -> ReLU6 runs on integer kernels end to end, so once
  // the arena is laid out a pass acquires tensor storage for its returned
  // output alone.
  util::Rng rng(10);
  nn::Graph g;
  const int in = g.add_input(Shape::chw(3, 12, 12));
  auto conv = std::make_unique<nn::Conv2D>(3, 24, 3, 1);
  nn::he_init_conv(conv->weight(), rng);
  const int c = g.add(std::move(conv), {in}, "conv");
  auto dw = std::make_unique<nn::DepthwiseConv2D>(24, 3, 1);
  nn::he_init_conv(dw->weight(), rng);
  const int d = g.add(std::move(dw), {c}, "dw");
  g.add(std::make_unique<nn::ReLU>(true), {d}, "relu6");
  QuantizedNetwork qnet(std::move(g));
  const Tensor x = Tensor::randn(Shape::chw(3, 12, 12), rng);
  qnet.calibrate({&x});
  const Tensor first = qnet.forward_int8(x);
  const std::uint64_t before = tensor::tensor_alloc_count();
  const Tensor again = qnet.forward_int8(x);
  EXPECT_EQ(tensor::tensor_alloc_count() - before, 1u);
  EXPECT_EQ(tensor::max_abs_diff(first, again), 0.0f);
}

TEST(Int8Kernels, DenseMatchesFloatReference) {
  util::Rng rng(8);
  auto dense = std::make_unique<nn::Dense>(10, 4);
  nn::xavier_init_dense(dense->weight(), rng);
  const Tensor x = Tensor::uniform(Shape::vec(10), rng, 0.0f, 2.0f);
  EXPECT_LE(int8_gap_in_steps(std::move(dense), x), 1.0f);
}

TEST(Calibrate, EmptyImageSetThrows) {
  util::Rng rng(20);
  nn::Graph g;
  int x = g.add_input(Shape::chw(1, 4, 4));
  auto conv = std::make_unique<nn::Conv2D>(1, 2, 3, 1);
  nn::he_init_conv(conv->weight(), rng);
  g.add(std::move(conv), {x}, "conv");
  nn::Network net(std::move(g));
  EXPECT_THROW(calibrate_activations(net, {}), std::invalid_argument);
}

TEST(Calibrate, SingleImageSetWorks) {
  util::Rng rng(21);
  nn::Graph g;
  int x = g.add_input(Shape::chw(1, 4, 4));
  auto conv = std::make_unique<nn::Conv2D>(1, 2, 3, 1);
  nn::he_init_conv(conv->weight(), rng);
  g.add(std::move(conv), {x}, "conv");

  QuantizedNetwork qnet(std::move(g));
  const Tensor img = Tensor::randn(Shape::chw(1, 4, 4), rng);
  qnet.calibrate({&img});
  ASSERT_TRUE(qnet.calibrated());
  for (const auto& [id, p] : qnet.scales()) EXPECT_GT(p.scale, 0.0f) << "node " << id;
  // The integer pass and the reference must both run off a one-image
  // calibration.
  const Tensor ys = simulated_forward(qnet, img);
  const Tensor yi = qnet.forward_int8(img);
  EXPECT_EQ(ys.shape(), yi.shape());
}

TEST(ChannelQuant, AllZeroChannelGetsSafeScale) {
  Tensor w(Shape{3, 4});  // [O, I] dense-style weight
  for (int i = 0; i < 4; ++i) {
    w[0 * 4 + i] = 0.0f;  // channel 0: all zeros — must not divide by zero
    w[1 * 4 + i] = 0.5f * static_cast<float>(i + 1);
    w[2 * 4 + i] = -1.0f;
  }
  const ChannelQuant q = quantize_weights_per_channel(w);
  EXPECT_FLOAT_EQ(q.scales[0], 1.0f);  // amax==0 guard (scale stays finite)
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.values[static_cast<std::size_t>(i)], 0);
  const Tensor restored = dequantize_weights(q, w.shape());
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(restored[0 * 4 + i], 0.0f);
}

TEST(Int8Kernels, OddKShapesMatchReference) {
  // K = in_c * kh * kw lands off every vector width here (K = 5 for a 1x1
  // conv, which also takes the direct no-im2col path, K = 17 for dense);
  // exercises the packed kernel's K remainder path.
  util::Rng rng(22);
  auto conv = std::make_unique<nn::Conv2D>(5, 3, 1, 1);
  nn::he_init_conv(conv->weight(), rng);
  const Tensor x = Tensor::uniform(Shape::chw(5, 6, 6), rng, -1.0f, 1.0f);
  EXPECT_LE(int8_gap_in_steps(std::move(conv), x), 1.0f);

  auto dense = std::make_unique<nn::Dense>(17, 3);
  nn::xavier_init_dense(dense->weight(), rng);
  const Tensor v = Tensor::uniform(Shape::vec(17), rng, 0.0f, 2.0f);
  EXPECT_LE(int8_gap_in_steps(std::move(dense), v), 1.0f);
}

TEST(QuantizedNetwork, ForwardInt8TracksSimulatedForwardOnZooTrunk) {
  util::Rng rng(23);
  nn::Graph g = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  nn::init_graph(g, rng);
  QuantizedNetwork qnet(fold_batchnorm(g));

  std::vector<Tensor> imgs;
  for (int i = 0; i < 4; ++i) imgs.push_back(Tensor::randn(Shape::chw(3, 24, 24), rng, 0.5f));
  std::vector<const Tensor*> ptrs;
  for (const auto& t : imgs) ptrs.push_back(&t);
  qnet.calibrate(ptrs);

  const Tensor ys = simulated_forward(qnet, imgs[0]);
  const Tensor yi = qnet.forward_int8(imgs[0]);
  ASSERT_EQ(ys.shape(), yi.shape());
  // Same weights, same calibrated grids; the two paths differ only in where
  // requantization rounding lands, so they track within a small fraction of
  // the output range.
  const float range = std::max(std::abs(ys.max()), std::abs(ys.min()));
  EXPECT_LT(tensor::max_abs_diff(ys, yi), 0.15f * range + 0.05f);

  // Steady-state integer passes reuse the arena: a second run must be
  // bitwise identical to the first.
  const Tensor yi2 = qnet.forward_int8(imgs[0]);
  EXPECT_EQ(tensor::max_abs_diff(yi, yi2), 0.0f);
}

TEST(QuantizedNetwork, IntegerAddMatchesSimulatedForwardBitwise) {
  // On a graph of table-driven ops and Adds, the integer pass and the
  // simulated-quantization pass do the same float arithmetic, so the
  // integer Add (dequantize, sum in Add's order, requantize) must reproduce
  // the simulated output exactly: at arity 2 and 3, over more elements than
  // one chunk of the pool split.
  nn::Graph g;
  const int in = g.add_input(Shape::chw(3, 40, 40));
  const int relu = g.add(std::make_unique<nn::ReLU>(false), {in}, "relu");
  const int relu6 = g.add(std::make_unique<nn::ReLU>(true), {in}, "relu6");
  const int add2 = g.add(std::make_unique<nn::Add>(2), {in, relu}, "add2");
  g.add(std::make_unique<nn::Add>(3), {add2, relu6, relu}, "add3");
  QuantizedNetwork qnet(std::move(g));
  util::Rng rng(26);
  std::vector<Tensor> imgs;
  for (int i = 0; i < 3; ++i) imgs.push_back(Tensor::randn(Shape::chw(3, 40, 40), rng, 4.0f));
  qnet.calibrate({&imgs[0], &imgs[1]});
  for (const Tensor& img : imgs) {
    const Tensor ys = simulated_forward(qnet, img);
    const Tensor yi = qnet.forward_int8(img);
    ASSERT_EQ(ys.shape(), yi.shape());
    EXPECT_EQ(std::memcmp(ys.data(), yi.data(), static_cast<std::size_t>(ys.numel()) * sizeof(float)),
              0);
  }
}

/// The integer pass is bit-exact across kernel backends on the TRNs the
/// paper proposes: BN-folded ResNet50/58 and MobileNetV2-1.40/138 at 32 px.
/// Between them they hold 1x1 direct convolutions, strided and padded ones,
/// an odd K (the 3-channel stem) and the Dense head, so every GEMM shape the
/// pre-packed weight panels serve is covered, and the MobileNetV2 TRN's
/// depthwise nodes run the integer depthwise kernel.
TEST(QuantizedNetwork, ForwardInt8BitIdenticalAcrossBackends) {
  struct Restore {
    tensor::BackendKind kind = tensor::active_backend_kind();
    ~Restore() { tensor::set_backend(kind); }
  } restore;
  bool direct = false, strided = false, padded = false, odd_k = false, dense = false,
       depthwise = false;
  for (const auto& [net, cut] : {std::pair{zoo::NetId::kResNet50, 58},
                                 std::pair{zoo::NetId::kMobileNetV2_140, 138}}) {
    util::Rng rng(25);
    nn::Graph trunk = zoo::build_trunk(net, 32);
    nn::init_graph(trunk, rng);
    QuantizedNetwork qnet(fold_batchnorm(core::build_trn(trunk, cut, core::HeadConfig{}, rng)));
    const nn::Graph& g = qnet.network().graph();
    for (int id = 1; id < g.node_count(); ++id) {
      const nn::Layer& layer = *g.node(id).layer;
      if (layer.kind() == nn::LayerKind::kDense) dense = true;
      if (layer.kind() == nn::LayerKind::kDepthwiseConv2D) depthwise = true;
      if (layer.kind() != nn::LayerKind::kConv2D) continue;
      const auto& conv = static_cast<const nn::Conv2D&>(layer);
      direct |= conv.im2col_is_identity();
      strided |= conv.stride() > 1;
      padded |= conv.pad_h() > 0 || conv.pad_w() > 0;
      odd_k |= conv.in_channels() * conv.kernel_h() * conv.kernel_w() % 2 == 1;
    }

    std::vector<Tensor> imgs;
    for (int i = 0; i < 2; ++i) imgs.push_back(Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f));
    qnet.calibrate({&imgs[0], &imgs[1]});
    for (const Tensor& img : imgs) {
      tensor::set_backend(tensor::BackendKind::kScalar);
      const Tensor ref = qnet.forward_int8(img);
      tensor::set_backend(tensor::BackendKind::kSimd);
      const Tensor got = qnet.forward_int8(img);
      ASSERT_EQ(ref.shape(), got.shape());
      EXPECT_EQ(std::memcmp(ref.data(), got.data(), static_cast<std::size_t>(ref.numel()) * sizeof(float)),
                0)
          << zoo::net_name(net) << "/" << cut;
    }
  }
  EXPECT_TRUE(direct && strided && padded && odd_k && dense && depthwise);
}

TEST(QuantizedNetwork, Int8SpeedupReportedAgainstDeviceModel) {
  // The speedup claim is a property of the packed simd kernels — the scalar
  // backend's s8u8 loop is deliberately the slow oracle — so pin the simd
  // backend for the measurement regardless of NETCUT_BACKEND.
  const tensor::BackendKind entry_backend = tensor::active_backend_kind();
  tensor::set_backend(tensor::BackendKind::kSimd);
  util::Rng rng(24);
  nn::Graph g = zoo::build_trunk(zoo::NetId::kResNet50, 32);
  nn::init_graph(g, rng);
  nn::Network fp(fold_batchnorm(g));
  QuantizedNetwork qnet(fold_batchnorm(g));
  const Tensor img = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  qnet.calibrate({&img});

  // One thread, so the pool's other participants cannot be descheduled
  // under one pass and not the other, and fp32 and int8 passes alternate,
  // so a slow stretch of a shared host hits both; best of kPasses each.
  const int entry_threads = util::num_threads();
  util::set_num_threads(1);
  constexpr int kPasses = 9;
  fp.forward(img);  // warm caches and plans
  qnet.forward_int8(img);
  double fp_ms = 1e300, q_ms = 1e300;
  const auto time_ms = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  for (int i = 0; i < kPasses; ++i) {
    fp_ms = std::min(fp_ms, time_ms([&] { fp.forward(img); }));
    q_ms = std::min(q_ms, time_ms([&] { qnet.forward_int8(img); }));
  }
  util::set_num_threads(entry_threads);
  const double measured = fp_ms / q_ms;
  const double predicted = hw::DeviceModel().int8_speedup(fp.graph(), /*fuse=*/true);

  RecordProperty("fp32_ms", std::to_string(fp_ms));
  RecordProperty("int8_ms", std::to_string(q_ms));
  RecordProperty("measured_speedup", std::to_string(measured));
  RecordProperty("device_model_speedup", std::to_string(predicted));
  std::printf("int8 e2e resnet50@32: fp32 %.3f ms, int8 %.3f ms, measured %.2fx, "
              "device-model term %.2fx\n",
              fp_ms, q_ms, measured, predicted);

  // The model simulates an embedded GPU, so only direction is comparable:
  // both must see int8 as a speedup (loose floor guards timing jitter).
  EXPECT_GT(predicted, 1.0);
  EXPECT_GT(measured, 0.75);
  tensor::set_backend(entry_backend);
}

}  // namespace
}  // namespace netcut::quant
