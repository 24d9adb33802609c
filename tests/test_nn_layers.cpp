#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/combine.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/norm.hpp"
#include "nn/pooling.hpp"
#include "tensor/gemm.hpp"
#include "util/rng.hpp"

namespace netcut::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

std::vector<const Tensor*> in(const Tensor& t) { return {&t}; }

TEST(Conv2D, ShapeInference) {
  Conv2D conv(3, 8, 3, 2);  // same pad
  EXPECT_EQ(conv.output_shape({Shape::chw(3, 32, 32)}), Shape::chw(8, 16, 16));
  Conv2D valid(3, 8, 3, 1, 0);
  EXPECT_EQ(valid.output_shape({Shape::chw(3, 32, 32)}), Shape::chw(8, 30, 30));
  EXPECT_THROW(conv.output_shape({Shape::chw(4, 32, 32)}), std::invalid_argument);
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  Conv2D conv(1, 1, 1, 1, 0, false);
  conv.weight()[0] = 1.0f;
  util::Rng rng(1);
  const Tensor x = Tensor::randn(Shape::chw(1, 5, 5), rng);
  const Tensor y = conv.forward(in(x), false);
  EXPECT_LT(tensor::max_abs_diff(x, y), 1e-6f);
}

TEST(Conv2D, MatchesNaiveConvolution) {
  util::Rng rng(2);
  Conv2D conv(2, 3, 3, 1);
  for (auto* p : conv.params()) *p = Tensor::randn(p->shape(), rng, 0.5f);
  const Tensor x = Tensor::randn(Shape::chw(2, 6, 6), rng);
  const Tensor y = conv.forward(in(x), false);

  for (int o = 0; o < 3; ++o)
    for (int yy = 0; yy < 6; ++yy)
      for (int xx = 0; xx < 6; ++xx) {
        float ref = conv.bias()[o];
        for (int c = 0; c < 2; ++c)
          for (int kh = 0; kh < 3; ++kh)
            for (int kw = 0; kw < 3; ++kw) {
              const int iy = yy + kh - 1, ix = xx + kw - 1;
              if (iy < 0 || iy >= 6 || ix < 0 || ix >= 6) continue;
              ref += conv.weight().at(o, c, kh, kw) * x.at(c, iy, ix);
            }
        ASSERT_NEAR(y.at(o, yy, xx), ref, 1e-4f);
      }
}

TEST(Conv2D, RectangularKernelShapes) {
  Conv2D conv(4, 6, 1, 7, 1, 0, 3, false);  // 1x7 "same"
  EXPECT_EQ(conv.output_shape({Shape::chw(4, 10, 10)}), Shape::chw(6, 10, 10));
  EXPECT_EQ(conv.weight().shape(), (Shape{6, 4, 1, 7}));
}

TEST(Conv2D, CostCountsMacsAndParams) {
  Conv2D conv(3, 8, 3, 1, -1, false);
  const LayerCost c = conv.cost({Shape::chw(3, 10, 10)});
  EXPECT_EQ(c.flops, 2LL * 3 * 3 * 3 * 8 * 100);
  EXPECT_EQ(c.params, 3LL * 3 * 3 * 8);
  EXPECT_EQ(c.kernel, 3);
}

TEST(DepthwiseConv2D, IndependentChannels) {
  DepthwiseConv2D conv(2, 3, 1, -1, false);
  conv.weight().fill(0.0f);
  // Channel 0: identity tap; channel 1: zero kernel.
  conv.weight().at(0, 0, 1, 1) = 1.0f;
  util::Rng rng(3);
  const Tensor x = Tensor::randn(Shape::chw(2, 4, 4), rng);
  const Tensor y = conv.forward(in(x), false);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i]);        // channel 0 passes
    EXPECT_FLOAT_EQ(y[16 + i], 0.0f);   // channel 1 suppressed
  }
}

TEST(Dense, MatrixVectorSemantics) {
  Dense d(3, 2);
  d.weight().fill(0.0f);
  d.weight()[0] = 1.0f;              // w[0][0]
  d.weight()[3 + 2] = 2.0f;          // w[1][2]
  d.bias()[1] = 0.5f;
  Tensor x(Shape::vec(3));
  x[0] = 4.0f;
  x[2] = 3.0f;
  const Tensor y = d.forward(in(x), false);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_FLOAT_EQ(y[1], 6.5f);
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  BatchNorm bn(1, 0.0f);
  bn.running_mean()[0] = 2.0f;
  bn.running_var()[0] = 4.0f;
  bn.gamma()[0] = 3.0f;
  bn.beta()[0] = 1.0f;
  Tensor x(Shape::chw(1, 1, 2));
  x[0] = 2.0f;  // -> beta
  x[1] = 4.0f;  // -> (4-2)/2*3+1 = 4
  const Tensor y = bn.forward(in(x), false);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 4.0f);
}

TEST(BatchNorm, TrainModeNormalizesSpatially) {
  BatchNorm bn(1);
  util::Rng rng(4);
  const Tensor x = Tensor::randn(Shape::chw(1, 8, 8), rng, 5.0f);
  const Tensor y = bn.forward(in(x), true);
  EXPECT_NEAR(y.mean(), 0.0f, 1e-4f);
  double var = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) var += y[i] * y[i];
  EXPECT_NEAR(var / y.numel(), 1.0, 1e-2);
}

TEST(BatchNorm, StatCollectionInstallsObservedMoments) {
  BatchNorm bn(1);
  bn.begin_stat_collection();
  Tensor x(Shape::chw(1, 1, 4));
  x[0] = 1.0f; x[1] = 3.0f; x[2] = 5.0f; x[3] = 7.0f;
  bn.forward(in(x), false);
  bn.end_stat_collection();
  EXPECT_FLOAT_EQ(bn.running_mean()[0], 4.0f);
  EXPECT_NEAR(bn.running_var()[0], 5.0f, 1e-4f);  // population variance
}

TEST(ReLU, ClipsNegativeAndOptionallySix) {
  Tensor x(Shape::vec(3));
  x[0] = -1.0f; x[1] = 3.0f; x[2] = 9.0f;
  ReLU relu(false), relu6(true);
  const Tensor a = relu.forward(in(x), false);
  EXPECT_FLOAT_EQ(a[0], 0.0f);
  EXPECT_FLOAT_EQ(a[2], 9.0f);
  const Tensor b = relu6.forward(in(x), false);
  EXPECT_FLOAT_EQ(b[2], 6.0f);
  EXPECT_EQ(relu.kind(), LayerKind::kReLU);
  EXPECT_EQ(relu6.kind(), LayerKind::kReLU6);
}

TEST(Softmax, NormalizesAndOrders) {
  Tensor x(Shape::vec(3));
  x[0] = 1.0f; x[1] = 3.0f; x[2] = 2.0f;
  const Tensor p = softmax(x);
  EXPECT_NEAR(p.sum(), 1.0f, 1e-6f);
  EXPECT_GT(p[1], p[2]);
  EXPECT_GT(p[2], p[0]);
}

TEST(Softmax, StableForLargeLogits) {
  Tensor x(Shape::vec(2));
  x[0] = 1000.0f; x[1] = 1001.0f;
  const Tensor p = softmax(x);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p.sum(), 1.0f, 1e-6f);
}

TEST(Pool2D, MaxAndAvgSemantics) {
  Tensor x(Shape::chw(1, 2, 2));
  x[0] = 1.0f; x[1] = 2.0f; x[2] = 3.0f; x[3] = 4.0f;
  Pool2D mx(Pool2D::Mode::kMax, 2, 2, 0);
  Pool2D av(Pool2D::Mode::kAvg, 2, 2, 0);
  EXPECT_FLOAT_EQ(mx.forward(in(x), false)[0], 4.0f);
  EXPECT_FLOAT_EQ(av.forward(in(x), false)[0], 2.5f);
}

TEST(Pool2D, TinyInputClampsToOneOutput) {
  Pool2D p(Pool2D::Mode::kMax, 3, 2, 0);
  EXPECT_EQ(p.output_shape({Shape::chw(4, 1, 1)}), Shape::chw(4, 1, 1));
  Tensor x(Shape::chw(4, 1, 1), 2.0f);
  EXPECT_FLOAT_EQ(p.forward(in(x), false)[0], 2.0f);
}

TEST(GlobalAvgPool, ChannelMeans) {
  Tensor x(Shape::chw(2, 2, 2));
  for (int i = 0; i < 4; ++i) x[i] = 1.0f;
  for (int i = 4; i < 8; ++i) x[i] = static_cast<float>(i);
  GlobalAvgPool gap;
  const Tensor y = gap.forward(in(x), false);
  EXPECT_EQ(y.shape(), Shape::vec(2));
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 5.5f);
}

TEST(AddConcat, CombineSemantics) {
  Tensor a(Shape::chw(1, 1, 2), 1.0f);
  Tensor b(Shape::chw(1, 1, 2), 2.0f);
  Add add(2);
  const Tensor s = add.forward({&a, &b}, false);
  EXPECT_FLOAT_EQ(s[0], 3.0f);

  Concat cat(2);
  const Tensor c = cat.forward({&a, &b}, false);
  EXPECT_EQ(c.shape(), Shape::chw(2, 1, 2));
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[2], 2.0f);
  EXPECT_THROW(cat.output_shape({Shape::chw(1, 1, 2), Shape::chw(1, 2, 2)}),
               std::invalid_argument);
}

TEST(Flatten, RoundTrips) {
  util::Rng rng(5);
  const Tensor x = Tensor::randn(Shape::chw(2, 3, 4), rng);
  Flatten f;
  const Tensor y = f.forward(in(x), true);
  EXPECT_EQ(y.shape(), Shape::vec(24));
  const auto back = f.backward(y);
  EXPECT_EQ(back[0].shape(), x.shape());
  EXPECT_LT(tensor::max_abs_diff(back[0], x), 1e-6f);
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<std::size_t>(a.numel())),
            0)
      << what;
}

TEST(Layer, ForwardEqualsForwardIntoForEveryKind) {
  // Layer::forward is one base helper over forward_into; for every layer
  // kind it must produce exactly what forward_into writes into storage the
  // caller preallocated (poisoned first, so an unwritten element shows),
  // with and without planned scratch, in both modes. A train-mode
  // forward_into must cache what backward needs in storage of its own:
  // the caller's `out` is an arena slot that later nodes overwrite (Softmax
  // caches its output, the others their inputs).
  struct Case {
    std::function<std::unique_ptr<Layer>()> make;
    std::vector<Shape> in;
  };
  const std::vector<Case> cases = {
      {[] { return std::make_unique<Input>(Shape::chw(2, 5, 5)); }, {Shape::chw(2, 5, 5)}},
      {[] { return std::make_unique<Conv2D>(2, 3, 3, 2); }, {Shape::chw(2, 7, 7)}},
      {[] { return std::make_unique<Conv2D>(4, 3, 1, 1, 0); }, {Shape::chw(4, 5, 5)}},
      {[] { return std::make_unique<DepthwiseConv2D>(3, 3, 1); }, {Shape::chw(3, 6, 6)}},
      {[] { return std::make_unique<Dense>(12, 5); }, {Shape::vec(12)}},
      {[] { return std::make_unique<BatchNorm>(3); }, {Shape::chw(3, 4, 4)}},
      {[] { return std::make_unique<ReLU>(false); }, {Shape::chw(2, 3, 3)}},
      {[] { return std::make_unique<ReLU>(true); }, {Shape::chw(2, 3, 3)}},
      {[] { return std::make_unique<Pool2D>(Pool2D::Mode::kMax, 3, 2); }, {Shape::chw(2, 7, 7)}},
      {[] { return std::make_unique<Pool2D>(Pool2D::Mode::kAvg, 2, 2, 0); },
       {Shape::chw(2, 6, 6)}},
      {[] { return std::make_unique<GlobalAvgPool>(); }, {Shape::chw(4, 3, 3)}},
      {[] { return std::make_unique<Softmax>(); }, {Shape::vec(7)}},
      {[] { return std::make_unique<Add>(3); },
       {Shape::chw(2, 3, 3), Shape::chw(2, 3, 3), Shape::chw(2, 3, 3)}},
      {[] { return std::make_unique<Concat>(2); }, {Shape::chw(1, 3, 3), Shape::chw(2, 3, 3)}},
      {[] { return std::make_unique<Flatten>(); }, {Shape::chw(2, 3, 4)}},
  };

  std::set<LayerKind> seen;
  util::Rng rng(9);
  for (const Case& c : cases) {
    const std::unique_ptr<Layer> proto = c.make();
    for (Tensor* p : proto->params()) *p = Tensor::randn(p->shape(), rng, 0.5f);
    seen.insert(proto->kind());
    std::vector<Tensor> inputs;
    for (const Shape& s : c.in) inputs.push_back(Tensor::randn(s, rng, 1.0f));
    std::vector<const Tensor*> ins;
    for (const Tensor& t : inputs) ins.push_back(&t);
    const Shape out_shape = proto->output_shape(c.in);
    std::vector<float> scratch(proto->forward_scratch_floats(c.in));

    const Tensor grad_out = Tensor::randn(out_shape, rng);
    for (const bool train : {false, true}) {
      const std::unique_ptr<Layer> by_forward = proto->clone();
      const Tensor y = by_forward->forward(ins, train);
      const std::vector<Tensor> want_grads =
          train ? by_forward->backward(grad_out) : std::vector<Tensor>{};
      for (const bool planned_scratch : {false, true}) {
        const std::string tag = std::string(to_string(proto->kind())) +
                                (train ? " train" : " inference") +
                                (planned_scratch ? " planned scratch" : "");
        const std::unique_ptr<Layer> by_into = proto->clone();
        Tensor out(out_shape, std::nanf(""));
        by_into->forward_into(ins, out, train,
                              planned_scratch && !scratch.empty() ? scratch.data() : nullptr);
        expect_bitwise_equal(out, y, tag);
        if (!train) continue;
        out.fill(std::nanf(""));
        const std::vector<Tensor> grads = by_into->backward(grad_out);
        ASSERT_EQ(grads.size(), want_grads.size()) << tag;
        for (std::size_t i = 0; i < grads.size(); ++i)
          expect_bitwise_equal(grads[i], want_grads[i],
                               tag + " grad_in[" + std::to_string(i) + "]");
      }
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(LayerKind::kFlatten) + 1)
      << "a layer kind is missing from the grid";
}

TEST(Conv2D, OneByOneConvSkipsIm2colBitwise) {
  // A 1x1, stride-1, unpadded Conv2D passes its input to the GEMM as B.
  // That must equal the explicit im2col + gemm lowering bit for bit, in
  // train and in inference, leave backward as it was, and ask the memory
  // planner for no scratch. 7 output channels and 6x6 = 36 pixels leave a
  // short row tile and a short column panel.
  util::Rng rng(12);
  Conv2D proto(5, 7, 1, 1, 0);
  for (Tensor* p : proto.params()) *p = Tensor::randn(p->shape(), rng, 0.5f);
  const Tensor x = Tensor::randn(Shape::chw(5, 6, 6), rng);
  const Tensor grad_out = Tensor::randn(Shape::chw(7, 6, 6), rng);
  const int k = 5, n = 36, m = 7;
  ASSERT_TRUE(proto.im2col_is_identity());
  EXPECT_EQ(proto.forward_scratch_floats({x.shape()}), 0u);

  tensor::ConvGeometry geo;
  geo.in_c = 5;
  geo.in_h = geo.in_w = 6;
  geo.kernel_h = geo.kernel_w = 1;
  std::vector<float> cols(static_cast<std::size_t>(k) * n);
  tensor::im2col(x.data(), geo, cols.data());
  Tensor want(Shape::chw(m, 6, 6));
  tensor::gemm(proto.weight().data(), cols.data(), want.data(), m, k, n);
  for (int o = 0; o < m; ++o)
    for (int j = 0; j < n; ++j) want.data()[o * n + j] += proto.bias()[o];
  // Backward's own lowering: dW = dY * cols^T, dx = col2im(W^T * dY).
  Tensor want_dw(proto.weight().shape()), want_dx(x.shape());
  tensor::gemm_bt(grad_out.data(), cols.data(), want_dw.data(), m, n, k);
  std::vector<float> dcols(cols.size());
  tensor::gemm_at(proto.weight().data(), grad_out.data(), dcols.data(), k, m, n);
  tensor::col2im(dcols.data(), geo, want_dx.data());

  for (const bool train : {false, true}) {
    const std::string tag = train ? "train" : "inference";
    Conv2D conv = proto;
    Tensor out(want.shape(), std::nanf(""));
    conv.forward_into(in(x), out, train, nullptr);
    expect_bitwise_equal(out, want, tag);
    if (!train) continue;
    const std::vector<Tensor> grads = conv.backward(grad_out);
    ASSERT_EQ(grads.size(), 1u);
    expect_bitwise_equal(grads[0], want_dx, "grad_in");
    expect_bitwise_equal(*conv.grads()[0], want_dw, "grad_weight");
  }

  // Any stride or padding needs the real lowering and its scratch.
  for (const Conv2D& other : {Conv2D(5, 7, 1, 2, 0), Conv2D(5, 7, 1, 1, 1)}) {
    EXPECT_FALSE(other.im2col_is_identity());
    EXPECT_GT(other.forward_scratch_floats({x.shape()}), 0u);
  }
}

TEST(Layer, BackwardWithoutForwardThrows) {
  Conv2D conv(1, 1, 3);
  Tensor g(Shape::chw(1, 4, 4));
  EXPECT_THROW(conv.backward(g), std::logic_error);
}

TEST(Layer, GradientsAllocatedOnFirstUse) {
  // A constructor allocates the parameters (and BatchNorm's running
  // statistics), never gradient storage: inference-only graphs hold none.
  struct Case {
    std::function<std::unique_ptr<Layer>()> make;
    std::uint64_t tensors;
  };
  const std::vector<Case> cases = {
      {[] { return std::make_unique<Conv2D>(3, 8, 3); }, 2},
      {[] { return std::make_unique<DepthwiseConv2D>(8, 3); }, 2},
      {[] { return std::make_unique<Dense>(16, 4); }, 2},
      {[] { return std::make_unique<BatchNorm>(8); }, 4},
  };
  for (const Case& c : cases) {
    const std::uint64_t before = tensor::tensor_alloc_count();
    const std::unique_ptr<Layer> layer = c.make();
    EXPECT_EQ(tensor::tensor_alloc_count() - before, c.tensors) << to_string(layer->kind());

    // The first grads() call sizes them like the parameters, zeroed.
    const std::vector<Tensor*> params = layer->params();
    const std::vector<Tensor*> grads = layer->grads();
    ASSERT_EQ(grads.size(), params.size());
    for (std::size_t i = 0; i < grads.size(); ++i) {
      EXPECT_EQ(grads[i]->shape(), params[i]->shape());
      for (std::int64_t k = 0; k < grads[i]->numel(); ++k) EXPECT_EQ((*grads[i])[k], 0.0f);
    }
  }
}

}  // namespace
}  // namespace netcut::nn
