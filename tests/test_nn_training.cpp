// End-to-end training behaviour: losses, optimizers, and that small
// networks actually learn under the framework's backprop.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/graph.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/norm.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"

namespace netcut::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Loss, SoftCrossEntropyGradientIsSoftmaxMinusTarget) {
  Tensor logits(Shape::vec(3));
  logits[0] = 0.2f; logits[1] = -0.4f; logits[2] = 1.1f;
  Tensor target(Shape::vec(3));
  target[0] = 0.5f; target[1] = 0.3f; target[2] = 0.2f;
  const auto r = loss::soft_cross_entropy(logits, target);
  const Tensor p = softmax(logits);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(r.grad[i], p[i] - target[i], 1e-6f);
  EXPECT_GT(r.value, 0.0);
}

TEST(Loss, CrossEntropyMinimizedWhenPredictionMatchesTarget) {
  Tensor target(Shape::vec(3));
  target[0] = 0.6f; target[1] = 0.3f; target[2] = 0.1f;
  Tensor matching(Shape::vec(3));
  for (int i = 0; i < 3; ++i) matching[i] = std::log(target[i]);
  const double at_target = loss::soft_cross_entropy(matching, target).value;
  Tensor off(Shape::vec(3));
  off[0] = 2.0f; off[1] = -1.0f; off[2] = 0.0f;
  EXPECT_LT(at_target, loss::soft_cross_entropy(off, target).value);
}

/// y = Wx regression under a squared-error loss: Adam at rate `lr` must
/// drive the loss near zero.
double train_linear_regression(double lr, int epochs) {
  util::Rng rng(42);
  Graph g;
  const int in = g.add_input(Shape::vec(4));
  auto fc = std::make_unique<Dense>(4, 2);
  xavier_init_dense(fc->weight(), rng);
  g.add(std::move(fc), {in}, "fc");
  Network net(std::move(g));

  // Ground-truth weights.
  Tensor wtrue(Shape{2, 4});
  for (int i = 0; i < 8; ++i) wtrue[i] = static_cast<float>(0.3 * (i % 5) - 0.5);

  std::vector<Tensor> xs, ys;
  for (int i = 0; i < 64; ++i) {
    Tensor x = Tensor::randn(Shape::vec(4), rng);
    Tensor y(Shape::vec(2));
    for (int o = 0; o < 2; ++o) {
      float s = 0.0f;
      for (int k = 0; k < 4; ++k) s += wtrue[o * 4 + k] * x[k];
      y[o] = s;
    }
    xs.push_back(std::move(x));
    ys.push_back(std::move(y));
  }

  Adam opt(lr);
  opt.bind(net.params(), net.grads());
  double last = 0.0;
  for (int e = 0; e < epochs; ++e) {
    last = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      net.zero_grads();
      const Tensor pred = net.forward(xs[i], true);
      // Mean squared error and its gradient 2 (pred - y) / n.
      Tensor grad(pred.shape());
      double sq = 0.0;
      const double n = static_cast<double>(pred.numel());
      for (std::int64_t j = 0; j < pred.numel(); ++j) {
        const double d = pred[j] - ys[i][j];
        sq += d * d;
        grad[j] = static_cast<float>(2.0 * d / n);
      }
      net.backward(grad);
      opt.step();
      last += sq / n;
    }
    last /= static_cast<double>(xs.size());
  }
  return last;
}

TEST(Optimizer, AdamConvergesOnLinearRegression) {
  EXPECT_LT(train_linear_regression(0.02, 60), 1e-4);
}

TEST(Optimizer, BindValidatesShapes) {
  Adam opt(0.1);
  Tensor p(Shape::vec(3)), g(Shape::vec(4));
  EXPECT_THROW(opt.bind({&p}, {&g}), std::invalid_argument);
  EXPECT_THROW(opt.bind({&p}, {}), std::invalid_argument);
}

TEST(Training, TinyCnnLearnsToClassify) {
  // Two 6x6 single-channel patterns (vertical vs horizontal bar) must be
  // separable by a conv net trained with full backprop through conv, bn,
  // pooling, and dense layers.
  util::Rng rng(7);
  Graph g;
  int x = g.add_input(Shape::chw(1, 6, 6));
  auto conv = std::make_unique<Conv2D>(1, 4, 3, 1);
  he_init_conv(conv->weight(), rng);
  x = g.add(std::move(conv), {x}, "conv");
  x = g.add(std::make_unique<ReLU>(false), {x}, "relu");
  x = g.add(std::make_unique<GlobalAvgPool>(), {x}, "gap");
  auto fc = std::make_unique<Dense>(4, 2);
  xavier_init_dense(fc->weight(), rng);
  g.add(std::move(fc), {x}, "fc");
  Network net(std::move(g));

  auto make_sample = [&](bool vertical) {
    Tensor img(Shape::chw(1, 6, 6));
    const int pos = rng.uniform_int(1, 4);
    for (int i = 0; i < 6; ++i) {
      if (vertical)
        img.at(0, i, pos) = 1.0f;
      else
        img.at(0, pos, i) = 1.0f;
    }
    for (std::int64_t i = 0; i < img.numel(); ++i)
      img[i] += static_cast<float>(rng.normal(0.0, 0.05));
    return img;
  };

  Adam opt(0.01);
  opt.bind(net.params(), net.grads());
  for (int step = 0; step < 400; ++step) {
    const bool vertical = step % 2 == 0;
    Tensor target(Shape::vec(2));
    target[vertical ? 0 : 1] = 1.0f;
    net.zero_grads();
    const Tensor logits = net.forward(make_sample(vertical), true);
    net.backward(loss::soft_cross_entropy(logits, target).grad);
    opt.step();
  }

  int correct = 0;
  for (int i = 0; i < 60; ++i) {
    const bool vertical = i % 2 == 0;
    const Tensor logits = net.forward(make_sample(vertical), false);
    const bool pred_vertical = logits[0] > logits[1];
    if (pred_vertical == vertical) ++correct;
  }
  EXPECT_GE(correct, 55) << "CNN failed to learn a trivially separable task";
}

TEST(Init, HeAndXavierScales) {
  util::Rng rng(3);
  Tensor w(Shape{32, 16, 3, 3});
  he_init_conv(w, rng);
  double var = 0.0;
  for (std::int64_t i = 0; i < w.numel(); ++i) var += w[i] * w[i];
  var /= static_cast<double>(w.numel());
  EXPECT_NEAR(var, 2.0 / (16 * 9), 2.0 / (16 * 9) * 0.2);

  Tensor d(Shape{64, 64});
  xavier_init_dense(d, rng);
  EXPECT_LE(d.max(), std::sqrt(6.0 / 128) + 1e-6);
  EXPECT_GE(d.min(), -std::sqrt(6.0 / 128) - 1e-6);
}

}  // namespace
}  // namespace netcut::nn
