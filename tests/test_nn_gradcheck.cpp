// Finite-difference validation of every layer's backward implementation:
// each case wraps the layer in a one-node network and checks both the
// input gradient and (where present) parameter gradients.
#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "nn/activation.hpp"
#include "nn/combine.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/norm.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"

namespace netcut::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Scalar loss: sum of weighted squares keeps gradients well-scaled and
// exercises all outputs.
double loss_of(const Tensor& y) {
  double s = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i)
    s += 0.5 * static_cast<double>(y[i]) * y[i] * (1.0 + 0.1 * static_cast<double>(i % 7));
  return s;
}

Tensor loss_grad_of(const Tensor& y) {
  Tensor g(y.shape());
  for (std::int64_t i = 0; i < y.numel(); ++i)
    g[i] = y[i] * static_cast<float>(1.0 + 0.1 * static_cast<double>(i % 7));
  return g;
}

void check_single_layer(std::unique_ptr<Layer> layer, const Shape& input_shape,
                        double tol = 2e-2) {
  Graph g;
  const int in = g.add_input(input_shape);
  g.add(std::move(layer), {in}, "probe");
  Network net(std::move(g));

  util::Rng rng(17);
  const Tensor x = Tensor::randn(input_shape, rng, 0.8f);

  const GradCheckResult input_r = check_input_gradient(net, x, loss_of, loss_grad_of);
  EXPECT_LT(input_r.max_rel_error, tol) << "input gradient";

  if (!net.params().empty()) {
    const GradCheckResult param_r = check_param_gradients(net, x, loss_of, loss_grad_of);
    EXPECT_LT(param_r.max_rel_error, tol) << "parameter gradient";
  }
}

TEST(GradCheck, Conv2D) {
  util::Rng rng(1);
  auto conv = std::make_unique<Conv2D>(2, 3, 3, 1);
  for (auto* p : conv->params()) *p = Tensor::randn(p->shape(), rng, 0.4f);
  check_single_layer(std::move(conv), Shape::chw(2, 5, 5));
}

TEST(GradCheck, Conv2DStridedRectangular) {
  util::Rng rng(2);
  auto conv = std::make_unique<Conv2D>(2, 2, 1, 3, 2, 0, 1, true);
  for (auto* p : conv->params()) *p = Tensor::randn(p->shape(), rng, 0.4f);
  check_single_layer(std::move(conv), Shape::chw(2, 6, 6));
}

TEST(GradCheck, DepthwiseConv2D) {
  util::Rng rng(3);
  auto conv = std::make_unique<DepthwiseConv2D>(3, 3, 2);
  for (auto* p : conv->params()) *p = Tensor::randn(p->shape(), rng, 0.4f);
  check_single_layer(std::move(conv), Shape::chw(3, 6, 6));
}

TEST(GradCheck, Dense) {
  util::Rng rng(4);
  auto dense = std::make_unique<Dense>(7, 4);
  for (auto* p : dense->params()) *p = Tensor::randn(p->shape(), rng, 0.5f);
  check_single_layer(std::move(dense), Shape::vec(7));
}

TEST(GradCheck, BatchNormTrainMode) {
  auto bn = std::make_unique<BatchNorm>(2);
  bn->gamma()[0] = 1.3f;
  bn->gamma()[1] = 0.7f;
  bn->beta()[0] = 0.2f;
  check_single_layer(std::move(bn), Shape::chw(2, 4, 4), 5e-2);
}

TEST(GradCheck, ReLUFamilies) {
  check_single_layer(std::make_unique<ReLU>(false), Shape::chw(2, 4, 4));
  check_single_layer(std::make_unique<ReLU>(true), Shape::chw(2, 4, 4));
}

TEST(GradCheck, Softmax) { check_single_layer(std::make_unique<Softmax>(), Shape::vec(6)); }

TEST(GradCheck, MaxAndAvgPool) {
  check_single_layer(std::make_unique<Pool2D>(Pool2D::Mode::kMax, 2, 2, 0),
                     Shape::chw(2, 6, 6));
  check_single_layer(std::make_unique<Pool2D>(Pool2D::Mode::kAvg, 3, 2, 1),
                     Shape::chw(2, 6, 6));
}

TEST(GradCheck, GlobalAvgPool) {
  check_single_layer(std::make_unique<GlobalAvgPool>(), Shape::chw(3, 4, 4));
}

TEST(GradCheck, ResidualAddGraph) {
  // input -> conv -> add(input-branch conv2) : exercises multi-consumer
  // gradient accumulation through the DAG.
  util::Rng rng(5);
  Graph g;
  const int in = g.add_input(Shape::chw(2, 5, 5));
  auto c1 = std::make_unique<Conv2D>(2, 2, 3, 1);
  auto c2 = std::make_unique<Conv2D>(2, 2, 1, 1);
  for (auto* p : c1->params()) *p = Tensor::randn(p->shape(), rng, 0.4f);
  for (auto* p : c2->params()) *p = Tensor::randn(p->shape(), rng, 0.4f);
  const int a = g.add(std::move(c1), {in}, "branch-a");
  const int b = g.add(std::move(c2), {in}, "branch-b");
  g.add(std::make_unique<Add>(2), {a, b}, "merge");
  Network net(std::move(g));

  const Tensor x = Tensor::randn(Shape::chw(2, 5, 5), rng, 0.8f);
  const GradCheckResult r = check_input_gradient(net, x, loss_of, loss_grad_of);
  EXPECT_LT(r.max_rel_error, 2e-2);
  const GradCheckResult pr = check_param_gradients(net, x, loss_of, loss_grad_of);
  EXPECT_LT(pr.max_rel_error, 2e-2);
}

TEST(GradCheck, ConcatGraph) {
  util::Rng rng(6);
  Graph g;
  const int in = g.add_input(Shape::chw(2, 4, 4));
  auto c1 = std::make_unique<Conv2D>(2, 3, 3, 1);
  for (auto* p : c1->params()) *p = Tensor::randn(p->shape(), rng, 0.4f);
  const int a = g.add(std::move(c1), {in}, "branch");
  g.add(std::make_unique<Concat>(2), {in, a}, "concat");
  Network net(std::move(g));

  const Tensor x = Tensor::randn(Shape::chw(2, 4, 4), rng, 0.8f);
  const GradCheckResult r = check_input_gradient(net, x, loss_of, loss_grad_of);
  EXPECT_LT(r.max_rel_error, 2e-2);
}

TEST(GradCheck, SmallCnnEndToEnd) {
  // conv -> bn -> relu -> pool -> gap -> dense: the transfer-head pattern.
  util::Rng rng(7);
  Graph g;
  int x = g.add_input(Shape::chw(2, 8, 8));
  auto conv = std::make_unique<Conv2D>(2, 4, 3, 1);
  for (auto* p : conv->params()) *p = Tensor::randn(p->shape(), rng, 0.3f);
  x = g.add(std::move(conv), {x}, "conv");
  x = g.add(std::make_unique<BatchNorm>(4), {x}, "bn");
  x = g.add(std::make_unique<ReLU>(false), {x}, "relu");
  x = g.add(std::make_unique<Pool2D>(Pool2D::Mode::kAvg, 2, 2, 0), {x}, "pool");
  x = g.add(std::make_unique<GlobalAvgPool>(), {x}, "gap");
  auto dense = std::make_unique<Dense>(4, 3);
  for (auto* p : dense->params()) *p = Tensor::randn(p->shape(), rng, 0.5f);
  g.add(std::move(dense), {x}, "fc");
  Network net(std::move(g));

  const Tensor input = Tensor::randn(Shape::chw(2, 8, 8), rng, 0.8f);
  const GradCheckResult r = check_param_gradients(net, input, loss_of, loss_grad_of, 1e-3, 8);
  EXPECT_LT(r.max_rel_error, 5e-2);
}

}  // namespace
}  // namespace netcut::nn
