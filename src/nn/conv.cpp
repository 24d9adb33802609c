#include "nn/conv.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/gemm.hpp"
#include "util/thread_pool.hpp"

namespace netcut::nn {

using tensor::ConvGeometry;

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int stride, int pad, bool bias)
    : Conv2D(in_channels, out_channels, kernel, kernel, stride,
             pad < 0 ? tensor::same_pad(kernel) : pad,
             pad < 0 ? tensor::same_pad(kernel) : pad, bias) {}

Conv2D::Conv2D(int in_channels, int out_channels, int kernel_h, int kernel_w, int stride,
               int pad_h, int pad_w, bool bias)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_h_(kernel_h),
      kernel_w_(kernel_w),
      stride_(stride),
      pad_h_(pad_h),
      pad_w_(pad_w),
      has_bias_(bias),
      weight_(Shape{out_channels, in_channels, kernel_h, kernel_w}),
      bias_(Shape{out_channels}) {
  if (in_channels <= 0 || out_channels <= 0 || kernel_h <= 0 || kernel_w <= 0 || stride <= 0 ||
      pad_h < 0 || pad_w < 0)
    throw std::invalid_argument("Conv2D: invalid hyperparameters");
}

ConvGeometry Conv2D::geometry(const Shape& in) const {
  ConvGeometry g;
  g.in_c = in[0];
  g.in_h = in[1];
  g.in_w = in[2];
  g.kernel_h = kernel_h_;
  g.kernel_w = kernel_w_;
  g.stride = stride_;
  g.pad_h = pad_h_;
  g.pad_w = pad_w_;
  return g;
}

Shape Conv2D::output_shape(const std::vector<Shape>& in) const {
  require_arity(in, 1, "Conv2D");
  if (in[0].rank() != 3 || in[0][0] != in_c_)
    throw std::invalid_argument("Conv2D: input shape mismatch, got " + in[0].to_string());
  const ConvGeometry g = geometry(in[0]);
  if (g.out_h() < 1 || g.out_w() < 1)
    throw std::invalid_argument("Conv2D: output collapses below 1x1 for input " +
                                in[0].to_string());
  return Shape::chw(out_c_, g.out_h(), g.out_w());
}

void Conv2D::forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                          float* scratch) {
  require_arity(in, 1, "Conv2D");
  const Tensor& x = *in[0];
  const ConvGeometry g = geometry(x.shape());
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int k2 = in_c_ * kernel_h_ * kernel_w_;

  // W viewed as [out_c, k2]; the columns are [k2, oh*ow]. gemm (like every
  // hot kernel here) dispatches through the active tensor::KernelBackend.
  const float* cols = x.data();
  if (!im2col_is_identity()) {
    float* buf = scratch;
    if (buf == nullptr) {
      const std::size_t cols_size = static_cast<std::size_t>(k2) * oh * ow;
      if (cols_scratch_.size() < cols_size) cols_scratch_.resize(cols_size);
      buf = cols_scratch_.data();
    }
    tensor::im2col(x.data(), g, buf);
    cols = buf;
  }
  tensor::gemm(weight_.data(), cols, out.data(), out_c_, k2, oh * ow);
  if (has_bias_) {
    const std::size_t hw = static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
    for (std::size_t o = 0; o < static_cast<std::size_t>(out_c_); ++o) {
      float* plane = out.data() + o * hw;
      const float b = bias_[static_cast<std::int64_t>(o)];
      for (std::size_t i = 0; i < hw; ++i) plane[i] += b;
    }
  }
  if (train) cached_input_ = x;
}

std::size_t Conv2D::forward_scratch_floats(const std::vector<Shape>& in) const {
  if (im2col_is_identity()) return 0;
  const ConvGeometry g = geometry(in[0]);
  return static_cast<std::size_t>(in_c_ * kernel_h_ * kernel_w_) *
         static_cast<std::size_t>(g.out_h()) * static_cast<std::size_t>(g.out_w());
}

namespace {

/// Most columns one batch GEMM gathers. An image whose output plane is this
/// wide already fills the microkernel's 16-column panels on its own, and
/// merging more such images only adds gather, scatter and cache footprint:
/// on the perfbench TRNs (32 px, one thread) 4 lanes of a 64-pixel plane
/// ran 7% faster than singles and 8 lanes 6% slower, while 4 lanes of a
/// 1-pixel plane ran 3.5x faster. Narrower planes group as many images as
/// fit, up to the whole batch.
constexpr std::size_t kBatchGemmColumns = 256;

std::size_t lanes_per_gemm(std::size_t batch, std::size_t hw) {
  return std::min(batch, std::max<std::size_t>(1, kBatchGemmColumns / hw));
}

}  // namespace

void Conv2D::forward_lanes(std::span<LaneIO> lanes, float* batch_scratch) {
  for (const LaneIO& io : lanes) require_arity(io.in, 1, "Conv2D");
  const ConvGeometry g = geometry(lanes[0].in[0]->shape());
  const std::size_t group = lanes_per_gemm(lanes.size(), static_cast<std::size_t>(g.out_h()) *
                                                             static_cast<std::size_t>(g.out_w()));
  if (group == 1) {
    Layer::forward_lanes(lanes, batch_scratch);
    return;
  }
  for (std::size_t first = 0; first < lanes.size(); first += group)
    gemm_lanes(lanes.subspan(first, std::min(group, lanes.size() - first)), g, batch_scratch);
}

void Conv2D::gemm_lanes(std::span<LaneIO> lanes, const ConvGeometry& g, float* batch_scratch) {
  if (lanes.size() == 1) {
    forward_into(lanes[0].in, lanes[0].out, /*train=*/false, lanes[0].scratch);
    return;
  }
  const int batch = static_cast<int>(lanes.size());
  std::vector<const float*> imgs;
  imgs.reserve(lanes.size());
  for (const LaneIO& io : lanes) imgs.push_back(io.in[0]->data());
  const std::size_t hw = static_cast<std::size_t>(g.out_h()) * static_cast<std::size_t>(g.out_w());
  const std::size_t n = static_cast<std::size_t>(batch) * hw;
  const std::size_t k2 = static_cast<std::size_t>(in_c_ * kernel_h_ * kernel_w_);
  float* cols = batch_scratch;           // [k2, n]
  float* prod = batch_scratch + k2 * n;  // [out_c, n]
  tensor::im2col_batch(imgs.data(), batch, g, cols);
  tensor::gemm(weight_.data(), cols, prod, out_c_, static_cast<int>(k2), static_cast<int>(n));
  // Image b's block of every product row is its output plane; y + b in one
  // step is what forward_into's gemm-then-add-bias computes.
  const std::size_t planes = static_cast<std::size_t>(out_c_);
  const std::int64_t grain = static_cast<std::int64_t>(
      (kLaneParallelElems + planes * hw - 1) / (planes * hw));
  util::parallel_for(0, batch, grain, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      float* y = lanes[static_cast<std::size_t>(b)].out.data();
      const float* src = prod + static_cast<std::size_t>(b) * hw;
      for (std::size_t o = 0; o < planes; ++o) {
        float* plane = y + o * hw;
        const float* row = src + o * n;
        if (!has_bias_) {
          std::memcpy(plane, row, sizeof(float) * hw);
          continue;
        }
        const float bo = bias_[static_cast<std::int64_t>(o)];
        for (std::size_t i = 0; i < hw; ++i) plane[i] = row[i] + bo;
      }
    }
  });
}

std::size_t Conv2D::batch_scratch_floats(const std::vector<Shape>& in, int batch) const {
  const ConvGeometry g = geometry(in[0]);
  const std::size_t hw = static_cast<std::size_t>(g.out_h()) * static_cast<std::size_t>(g.out_w());
  const std::size_t group = lanes_per_gemm(static_cast<std::size_t>(batch), hw);
  if (group <= 1) return 0;
  return (static_cast<std::size_t>(in_c_ * kernel_h_ * kernel_w_) +
          static_cast<std::size_t>(out_c_)) *
         group * hw;
}

std::vector<Tensor> Conv2D::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) throw std::logic_error("Conv2D::backward without train forward");
  const Tensor& x = cached_input_;
  if (grad_weight_.empty()) grads();
  const ConvGeometry g = geometry(x.shape());
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int k2 = in_c_ * kernel_h_ * kernel_w_;
  const int hw = oh * ow;

  const std::size_t cols_size = static_cast<std::size_t>(k2) * hw;
  if (cols_scratch_.size() < cols_size) cols_scratch_.resize(cols_size);
  tensor::im2col(x.data(), g, cols_scratch_.data());

  // dW[out_c, k2] += dY[out_c, hw] * cols^T[hw, k2]
  const std::size_t dw_size = static_cast<std::size_t>(out_c_) * k2;
  if (dw_scratch_.size() < dw_size) dw_scratch_.resize(dw_size);
  tensor::gemm_bt(grad_out.data(), cols_scratch_.data(), dw_scratch_.data(), out_c_, hw, k2);
  for (std::int64_t i = 0; i < grad_weight_.numel(); ++i)
    grad_weight_[i] += dw_scratch_[static_cast<std::size_t>(i)];

  if (has_bias_) {
    const std::size_t shw = static_cast<std::size_t>(hw);
    for (std::size_t o = 0; o < static_cast<std::size_t>(out_c_); ++o) {
      const float* plane = grad_out.data() + o * shw;
      float s = 0.0f;
      for (std::size_t i = 0; i < shw; ++i) s += plane[i];
      grad_bias_[static_cast<std::int64_t>(o)] += s;
    }
  }

  // dcols[k2, hw] = W^T[k2, out_c] * dY[out_c, hw], then col2im.
  if (dcols_scratch_.size() < cols_size) dcols_scratch_.resize(cols_size);
  tensor::gemm_at(weight_.data(), grad_out.data(), dcols_scratch_.data(), k2, out_c_, hw);
  Tensor dx(x.shape());
  tensor::col2im(dcols_scratch_.data(), g, dx.data());

  std::vector<Tensor> grads_in;
  grads_in.push_back(std::move(dx));
  return grads_in;
}

std::vector<Tensor*> Conv2D::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::vector<Tensor*> Conv2D::grads() {
  grad_for(grad_weight_, weight_);
  if (has_bias_) return {&grad_weight_, &grad_for(grad_bias_, bias_)};
  return {&grad_weight_};
}

LayerCost Conv2D::cost(const std::vector<Shape>& in) const {
  const Shape out = output_shape(in);
  LayerCost c;
  const std::int64_t hw = static_cast<std::int64_t>(out[1]) * out[2];
  c.flops = 2LL * kernel_h_ * kernel_w_ * in_c_ * out_c_ * hw + (has_bias_ ? out.numel() : 0);
  c.params = weight_.numel() + (has_bias_ ? bias_.numel() : 0);
  c.input_elems = in[0].numel();
  c.output_elems = out.numel();
  c.kernel = kernel_h_ > kernel_w_ ? kernel_h_ : kernel_w_;
  return c;
}

DepthwiseConv2D::DepthwiseConv2D(int channels, int kernel, int stride, int pad, bool bias)
    : channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad < 0 ? tensor::same_pad(kernel) : pad),
      has_bias_(bias),
      weight_(Shape{channels, 1, kernel, kernel}),
      bias_(Shape{channels}) {
  if (channels <= 0 || kernel <= 0 || stride <= 0)
    throw std::invalid_argument("DepthwiseConv2D: invalid hyperparameters");
}

Shape DepthwiseConv2D::output_shape(const std::vector<Shape>& in) const {
  require_arity(in, 1, "DepthwiseConv2D");
  if (in[0].rank() != 3 || in[0][0] != channels_)
    throw std::invalid_argument("DepthwiseConv2D: input shape mismatch");
  const ConvGeometry g = geometry(in[0]);
  if (g.out_h() < 1 || g.out_w() < 1)
    throw std::invalid_argument("DepthwiseConv2D: output collapses below 1x1");
  return Shape::chw(channels_, g.out_h(), g.out_w());
}

ConvGeometry DepthwiseConv2D::geometry(const Shape& in) const {
  ConvGeometry g;
  g.in_c = in[0];
  g.in_h = in[1];
  g.in_w = in[2];
  g.kernel_h = g.kernel_w = kernel_;
  g.stride = stride_;
  g.pad_h = g.pad_w = pad_;
  return g;
}

void DepthwiseConv2D::forward_into(const std::vector<const Tensor*>& in, Tensor& out,
                                   bool train, float* scratch) {
  require_arity(in, 1, "DepthwiseConv2D");
  const Tensor& x = *in[0];
  const ConvGeometry g = geometry(x.shape());
  float* buf = scratch;
  if (buf == nullptr) {
    const std::size_t need = tensor::depthwise_scratch_floats(g);
    if (scratch_.size() < need) scratch_.resize(need);
    buf = scratch_.data();
  }
  // Dispatches through the active tensor::KernelBackend; both backends
  // partition whole channels, so results are thread-count invariant.
  tensor::depthwise_conv(x.data(), weight_.data(), has_bias_ ? bias_.data() : nullptr,
                         out.data(), g, buf);
  if (train) cached_input_ = x;
}

std::size_t DepthwiseConv2D::forward_scratch_floats(const std::vector<Shape>& in) const {
  return tensor::depthwise_scratch_floats(geometry(in[0]));
}

std::vector<Tensor> DepthwiseConv2D::backward(const Tensor& grad_out) {
  if (cached_input_.empty())
    throw std::logic_error("DepthwiseConv2D::backward without train forward");
  const Tensor& x = cached_input_;
  if (grad_weight_.empty()) grads();
  const int ih = x.shape()[1], iw = x.shape()[2];
  const int oh = grad_out.shape()[1], ow = grad_out.shape()[2];

  Tensor dx(x.shape());
  // All writes (dw, dxc, grad_bias_[c]) are channel-local, so the channel
  // partition is race-free and thread-count invariant.
  const std::int64_t per_chan = 4LL * kernel_ * kernel_ * oh * ow;
  const std::int64_t grain = per_chan > 0 ? ((1 << 16) + per_chan - 1) / per_chan : 1;
  util::parallel_for(0, channels_, grain, [&](std::int64_t c0, std::int64_t c1) {
  for (std::int64_t c = c0; c < c1; ++c) {
    const float* chan = x.data() + c * ih * iw;
    const float* dy = grad_out.data() + c * oh * ow;
    const float* w = weight_.data() + c * kernel_ * kernel_;
    float* dw = grad_weight_.data() + c * kernel_ * kernel_;
    float* dxc = dx.data() + c * ih * iw;
    float db = 0.0f;
    for (int yo = 0; yo < oh; ++yo) {
      for (int xo = 0; xo < ow; ++xo) {
        const float g = dy[yo * ow + xo];
        db += g;
        for (int kh = 0; kh < kernel_; ++kh) {
          const int iy = yo * stride_ + kh - pad_;
          if (iy < 0 || iy >= ih) continue;
          for (int kw = 0; kw < kernel_; ++kw) {
            const int ix = xo * stride_ + kw - pad_;
            if (ix < 0 || ix >= iw) continue;
            dw[kh * kernel_ + kw] += g * chan[iy * iw + ix];
            dxc[iy * iw + ix] += g * w[kh * kernel_ + kw];
          }
        }
      }
    }
    if (has_bias_) grad_bias_[c] += db;
  }
  });
  std::vector<Tensor> grads_in;
  grads_in.push_back(std::move(dx));
  return grads_in;
}

std::vector<Tensor*> DepthwiseConv2D::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::vector<Tensor*> DepthwiseConv2D::grads() {
  grad_for(grad_weight_, weight_);
  if (has_bias_) return {&grad_weight_, &grad_for(grad_bias_, bias_)};
  return {&grad_weight_};
}

LayerCost DepthwiseConv2D::cost(const std::vector<Shape>& in) const {
  const Shape out = output_shape(in);
  LayerCost c;
  c.flops = 2LL * kernel_ * kernel_ * out.numel() + (has_bias_ ? out.numel() : 0);
  c.params = weight_.numel() + (has_bias_ ? bias_.numel() : 0);
  c.input_elems = in[0].numel();
  c.output_elems = out.numel();
  c.kernel = kernel_;
  return c;
}

}  // namespace netcut::nn
