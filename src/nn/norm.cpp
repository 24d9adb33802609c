#include "nn/norm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace netcut::nn {

BatchNorm::BatchNorm(int channels, float eps)
    : channels_(channels),
      eps_(eps),
      gamma_(Shape{channels}, 1.0f),
      beta_(Shape{channels}),
      running_mean_(Shape{channels}),
      running_var_(Shape{channels}, 1.0f) {
  if (channels <= 0) throw std::invalid_argument("BatchNorm: invalid channel count");
}

Shape BatchNorm::output_shape(const std::vector<Shape>& in) const {
  require_arity(in, 1, "BatchNorm");
  if (in[0].rank() != 3 || in[0][0] != channels_)
    throw std::invalid_argument("BatchNorm: input shape mismatch");
  return in[0];
}

void BatchNorm::forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                             float* /*scratch*/) {
  require_arity(in, 1, "BatchNorm");
  const Tensor& x = *in[0];
  const int hw = x.shape()[1] * x.shape()[2];
  Tensor& y = out;

  if (collecting_) {
    stat_count_ += hw;
    for (int c = 0; c < channels_; ++c) {
      const std::int64_t at = static_cast<std::int64_t>(c) * hw;
      collect_channel(c, x.data() + at, y.data() + at, hw, stat_count_);
    }
    return;
  }

  if (!train) {
    for (int c = 0; c < channels_; ++c) {
      const float inv_std = 1.0f / std::sqrt(running_var_[c] + eps_);
      const float scale = gamma_[c] * inv_std;
      const float shift = beta_[c] - running_mean_[c] * scale;
      const float* src = x.data() + static_cast<std::int64_t>(c) * hw;
      float* dst = y.data() + static_cast<std::int64_t>(c) * hw;
      for (int i = 0; i < hw; ++i) dst[i] = src[i] * scale + shift;
    }
    return;
  }

  if (freeze_stats_) {
    // Frozen-statistics training: normalize with the running stats, cache
    // xhat for the parameter gradients; backward treats stats as constants.
    cached_frozen_ = true;
    cached_xhat_ = Tensor(x.shape());
    cached_inv_std_ = Tensor(Shape{channels_});
    for (int c = 0; c < channels_; ++c) {
      const float inv_std = 1.0f / std::sqrt(running_var_[c] + eps_);
      cached_inv_std_[c] = inv_std;
      const float* src = x.data() + static_cast<std::int64_t>(c) * hw;
      float* xh = cached_xhat_.data() + static_cast<std::int64_t>(c) * hw;
      float* dst = y.data() + static_cast<std::int64_t>(c) * hw;
      for (int i = 0; i < hw; ++i) {
        xh[i] = (src[i] - running_mean_[c]) * inv_std;
        dst[i] = gamma_[c] * xh[i] + beta_[c];
      }
    }
    return;
  }

  // Train mode: single-image spatial statistics.
  cached_frozen_ = false;
  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_ = Tensor(Shape{channels_});
  for (int c = 0; c < channels_; ++c) {
    const float* src = x.data() + static_cast<std::int64_t>(c) * hw;
    double s = 0.0;
    for (int i = 0; i < hw; ++i) s += src[i];
    const float m = static_cast<float>(s / hw);
    double v = 0.0;
    for (int i = 0; i < hw; ++i) v += static_cast<double>(src[i] - m) * (src[i] - m);
    const float var = static_cast<float>(v / hw);
    const float inv_std = 1.0f / std::sqrt(var + eps_);
    cached_inv_std_[c] = inv_std;
    float* xh = cached_xhat_.data() + static_cast<std::int64_t>(c) * hw;
    float* dst = y.data() + static_cast<std::int64_t>(c) * hw;
    for (int i = 0; i < hw; ++i) {
      xh[i] = (src[i] - m) * inv_std;
      dst[i] = gamma_[c] * xh[i] + beta_[c];
    }
  }
}

void BatchNorm::collect_channel(int c, const float* src, float* dst, int hw,
                                std::int64_t count) {
  // Accumulate running statistics AND normalize with the aggregate stats
  // collected so far (including this image), so deep stacks stay
  // well-conditioned throughout calibration. Normalizing each image by its
  // *own* spatial stats would annihilate per-image information once the
  // spatial grid collapses toward 1x1 at depth.
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < hw; ++i) {
    s += src[i];
    s2 += static_cast<double>(src[i]) * src[i];
  }
  stat_sum_[c] += static_cast<float>(s);
  stat_sumsq_[c] += static_cast<float>(s2);
  const double n = static_cast<double>(count);
  const float m = static_cast<float>(stat_sum_[c] / n);
  const float var =
      static_cast<float>(std::max(stat_sumsq_[c] / n - static_cast<double>(m) * m, 1e-8));
  const float inv_std = 1.0f / std::sqrt(var + eps_);
  for (int i = 0; i < hw; ++i) dst[i] = gamma_[c] * (src[i] - m) * inv_std + beta_[c];
}

void BatchNorm::forward_lanes(std::span<LaneIO> lanes, float* batch_scratch) {
  if (!collecting_) {
    Layer::forward_lanes(lanes, batch_scratch);
    return;
  }
  // Channels are independent; within one, the images run in order, so
  // image b sees the sums of images 0..b exactly as in a loop of
  // single-image forwards.
  for (const LaneIO& io : lanes) require_arity(io.in, 1, "BatchNorm");
  const Shape& shape = lanes[0].in[0]->shape();
  const int hw = shape[1] * shape[2];
  const std::int64_t base = stat_count_;
  const std::size_t per_channel = lanes.size() * static_cast<std::size_t>(hw);
  const auto grain =
      static_cast<std::int64_t>((kLaneParallelElems + per_channel - 1) / per_channel);
  util::parallel_for(0, channels_, grain, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      const std::int64_t at = c * hw;
      for (std::size_t b = 0; b < lanes.size(); ++b)
        collect_channel(static_cast<int>(c), lanes[b].in[0]->data() + at,
                        lanes[b].out.data() + at, hw,
                        base + static_cast<std::int64_t>(b + 1) * hw);
    }
  });
  stat_count_ = base + static_cast<std::int64_t>(lanes.size()) * hw;
}

std::vector<Tensor> BatchNorm::backward(const Tensor& grad_out) {
  if (cached_xhat_.empty()) throw std::logic_error("BatchNorm::backward without train forward");
  if (grad_gamma_.empty()) grads();
  const int hw = grad_out.shape()[1] * grad_out.shape()[2];
  Tensor dx(grad_out.shape());

  if (cached_frozen_) {
    for (int c = 0; c < channels_; ++c) {
      const float* dy = grad_out.data() + static_cast<std::int64_t>(c) * hw;
      const float* xh = cached_xhat_.data() + static_cast<std::int64_t>(c) * hw;
      float* dst = dx.data() + static_cast<std::int64_t>(c) * hw;
      const float k = gamma_[c] * cached_inv_std_[c];
      float sum_dy = 0.0f, sum_dy_xh = 0.0f;
      for (int i = 0; i < hw; ++i) {
        sum_dy += dy[i];
        sum_dy_xh += dy[i] * xh[i];
        dst[i] = k * dy[i];
      }
      grad_beta_[c] += sum_dy;
      grad_gamma_[c] += sum_dy_xh;
    }
    std::vector<Tensor> grads_in;
    grads_in.push_back(std::move(dx));
    return grads_in;
  }

  const float n = static_cast<float>(hw);
  for (int c = 0; c < channels_; ++c) {
    const float* dy = grad_out.data() + static_cast<std::int64_t>(c) * hw;
    const float* xh = cached_xhat_.data() + static_cast<std::int64_t>(c) * hw;
    float* dst = dx.data() + static_cast<std::int64_t>(c) * hw;
    float sum_dy = 0.0f, sum_dy_xh = 0.0f;
    for (int i = 0; i < hw; ++i) {
      sum_dy += dy[i];
      sum_dy_xh += dy[i] * xh[i];
    }
    grad_beta_[c] += sum_dy;
    grad_gamma_[c] += sum_dy_xh;
    const float k = gamma_[c] * cached_inv_std_[c];
    for (int i = 0; i < hw; ++i)
      dst[i] = k * (dy[i] - sum_dy / n - xh[i] * sum_dy_xh / n);
  }
  std::vector<Tensor> grads_in;
  grads_in.push_back(std::move(dx));
  return grads_in;
}

LayerCost BatchNorm::cost(const std::vector<Shape>& in) const {
  output_shape(in);
  LayerCost c;
  c.flops = 2LL * in[0].numel();  // fused scale+shift per element
  c.params = 2LL * channels_;
  c.input_elems = in[0].numel();
  c.output_elems = in[0].numel();
  c.kernel = 0;
  return c;
}

void BatchNorm::begin_stat_collection() {
  collecting_ = true;
  stat_sum_ = Tensor(Shape{channels_});
  stat_sumsq_ = Tensor(Shape{channels_});
  stat_count_ = 0;
}

void BatchNorm::end_stat_collection() {
  if (!collecting_) throw std::logic_error("BatchNorm: end_stat_collection without begin");
  collecting_ = false;
  if (stat_count_ == 0) return;  // saw no data: keep previous stats
  const double n = static_cast<double>(stat_count_);
  for (int c = 0; c < channels_; ++c) {
    const double m = stat_sum_[c] / n;
    const double v = stat_sumsq_[c] / n - m * m;
    running_mean_[c] = static_cast<float>(m);
    running_var_[c] = static_cast<float>(v > 1e-8 ? v : 1e-8);
  }
}

}  // namespace netcut::nn
