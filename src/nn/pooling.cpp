#include "nn/pooling.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "tensor/im2col.hpp"

namespace netcut::nn {

Pool2D::Pool2D(Mode mode, int kernel, int stride, int pad)
    : mode_(mode),
      kernel_(kernel),
      stride_(stride),
      pad_(pad < 0 ? tensor::same_pad(kernel) : pad) {
  if (kernel <= 0 || stride <= 0) throw std::invalid_argument("Pool2D: invalid hyperparameters");
}

Shape Pool2D::output_shape(const std::vector<Shape>& in) const {
  require_arity(in, 1, "Pool2D");
  if (in[0].rank() != 3) throw std::invalid_argument("Pool2D: expected CHW input");
  const int oh = std::max(1, (in[0][1] + 2 * pad_ - kernel_) / stride_ + 1);
  const int ow = std::max(1, (in[0][2] + 2 * pad_ - kernel_) / stride_ + 1);
  return Shape::chw(in[0][0], oh, ow);
}

void Pool2D::forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                          float* /*scratch*/) {
  require_arity(in, 1, "Pool2D");
  const Tensor& x = *in[0];
  const int C = x.shape()[0], ih = x.shape()[1], iw = x.shape()[2];
  const int oh = out.shape()[1], ow = out.shape()[2];

  Tensor& y = out;
  if (train && mode_ == Mode::kMax)
    cached_argmax_.assign(static_cast<std::size_t>(out.numel()), -1);

  for (int c = 0; c < C; ++c) {
    const float* chan = x.data() + static_cast<std::int64_t>(c) * ih * iw;
    float* dst = y.data() + static_cast<std::int64_t>(c) * oh * ow;
    for (int yo = 0; yo < oh; ++yo) {
      const int y0 = std::max(0, yo * stride_ - pad_);
      const int y1 = std::min(ih, yo * stride_ - pad_ + kernel_);
      for (int xo = 0; xo < ow; ++xo) {
        const int x0 = std::max(0, xo * stride_ - pad_);
        const int x1 = std::min(iw, xo * stride_ - pad_ + kernel_);
        if (mode_ == Mode::kMax) {
          float best = -std::numeric_limits<float>::infinity();
          int best_idx = -1;
          for (int yy = y0; yy < y1; ++yy)
            for (int xx = x0; xx < x1; ++xx) {
              const float v = chan[yy * iw + xx];
              if (v > best) {
                best = v;
                best_idx = yy * iw + xx;
              }
            }
          dst[yo * ow + xo] = best_idx >= 0 ? best : 0.0f;
          if (train)
            cached_argmax_[static_cast<std::size_t>(
                (static_cast<std::int64_t>(c) * oh + yo) * ow + xo)] = best_idx;
        } else {
          float s = 0.0f;
          int count = 0;
          for (int yy = y0; yy < y1; ++yy)
            for (int xx = x0; xx < x1; ++xx) {
              s += chan[yy * iw + xx];
              ++count;
            }
          dst[yo * ow + xo] = count > 0 ? s / static_cast<float>(count) : 0.0f;
        }
      }
    }
  }
  if (train) cached_in_shape_ = x.shape();
}

std::vector<Tensor> Pool2D::backward(const Tensor& grad_out) {
  if (cached_in_shape_.rank() != 3)
    throw std::logic_error("Pool2D::backward without train forward");
  const int C = cached_in_shape_[0], ih = cached_in_shape_[1], iw = cached_in_shape_[2];
  const int oh = grad_out.shape()[1], ow = grad_out.shape()[2];
  Tensor dx(cached_in_shape_);

  for (int c = 0; c < C; ++c) {
    const float* dy = grad_out.data() + static_cast<std::int64_t>(c) * oh * ow;
    float* dst = dx.data() + static_cast<std::int64_t>(c) * ih * iw;
    for (int yo = 0; yo < oh; ++yo) {
      const int y0 = std::max(0, yo * stride_ - pad_);
      const int y1 = std::min(ih, yo * stride_ - pad_ + kernel_);
      for (int xo = 0; xo < ow; ++xo) {
        const float g = dy[yo * ow + xo];
        if (mode_ == Mode::kMax) {
          const int idx = cached_argmax_[static_cast<std::size_t>(
              (static_cast<std::int64_t>(c) * oh + yo) * ow + xo)];
          if (idx >= 0) dst[idx] += g;
        } else {
          const int x0 = std::max(0, xo * stride_ - pad_);
          const int x1 = std::min(iw, xo * stride_ - pad_ + kernel_);
          const int count = (y1 - y0) * (x1 - x0);
          if (count <= 0) continue;
          const float share = g / static_cast<float>(count);
          for (int yy = y0; yy < y1; ++yy)
            for (int xx = x0; xx < x1; ++xx) dst[yy * iw + xx] += share;
        }
      }
    }
  }
  std::vector<Tensor> grads_in;
  grads_in.push_back(std::move(dx));
  return grads_in;
}

LayerCost Pool2D::cost(const std::vector<Shape>& in) const {
  const Shape out = output_shape(in);
  LayerCost c;
  c.flops = static_cast<std::int64_t>(kernel_) * kernel_ * out.numel();
  c.input_elems = in[0].numel();
  c.output_elems = out.numel();
  c.kernel = kernel_;
  return c;
}

Shape GlobalAvgPool::output_shape(const std::vector<Shape>& in) const {
  require_arity(in, 1, "GlobalAvgPool");
  if (in[0].rank() != 3) throw std::invalid_argument("GlobalAvgPool: expected CHW input");
  return Shape::vec(in[0][0]);
}

void GlobalAvgPool::forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                                 float* /*scratch*/) {
  require_arity(in, 1, "GlobalAvgPool");
  const Tensor& x = *in[0];
  const int C = x.shape()[0];
  const int hw = x.shape()[1] * x.shape()[2];
  for (int c = 0; c < C; ++c) {
    const float* chan = x.data() + static_cast<std::int64_t>(c) * hw;
    double s = 0.0;
    for (int i = 0; i < hw; ++i) s += chan[i];
    out[c] = static_cast<float>(s / hw);
  }
  if (train) cached_in_shape_ = x.shape();
}

std::vector<Tensor> GlobalAvgPool::backward(const Tensor& grad_out) {
  if (cached_in_shape_.rank() != 3)
    throw std::logic_error("GlobalAvgPool::backward without train forward");
  const int C = cached_in_shape_[0];
  const int hw = cached_in_shape_[1] * cached_in_shape_[2];
  Tensor dx(cached_in_shape_);
  for (int c = 0; c < C; ++c) {
    const float share = grad_out[c] / static_cast<float>(hw);
    float* dst = dx.data() + static_cast<std::int64_t>(c) * hw;
    for (int i = 0; i < hw; ++i) dst[i] = share;
  }
  std::vector<Tensor> grads_in;
  grads_in.push_back(std::move(dx));
  return grads_in;
}

LayerCost GlobalAvgPool::cost(const std::vector<Shape>& in) const {
  LayerCost c;
  c.flops = in[0].numel();
  c.input_elems = in[0].numel();
  c.output_elems = in[0][0];
  return c;
}

}  // namespace netcut::nn
