#include "nn/activation.hpp"

#include <cmath>
#include <stdexcept>

namespace netcut::nn {

namespace {
/// Numerically stable softmax of rank-1 `logits` into `y` (same shape).
void softmax_into(const Tensor& logits, Tensor& y) {
  const float m = logits.max();
  double z = 0.0;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    y[i] = std::exp(logits[i] - m);
    z += y[i];
  }
  const float inv = static_cast<float>(1.0 / z);
  for (std::int64_t i = 0; i < logits.numel(); ++i) y[i] *= inv;
}
}  // namespace

Shape ReLU::output_shape(const std::vector<Shape>& in) const {
  require_arity(in, 1, "ReLU");
  return in[0];
}

void ReLU::forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                        float* /*scratch*/) {
  require_arity(in, 1, "ReLU");
  const Tensor& x = *in[0];
  const float hi = clip6_ ? 6.0f : 0.0f;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    float v = x[i] > 0.0f ? x[i] : 0.0f;
    if (clip6_ && v > hi) v = hi;
    out[i] = v;
  }
  if (train) cached_input_ = x;
}

std::vector<Tensor> ReLU::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) throw std::logic_error("ReLU::backward without train forward");
  Tensor dx(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    const float x = cached_input_[i];
    const bool pass = clip6_ ? (x > 0.0f && x < 6.0f) : (x > 0.0f);
    dx[i] = pass ? grad_out[i] : 0.0f;
  }
  std::vector<Tensor> grads_in;
  grads_in.push_back(std::move(dx));
  return grads_in;
}

LayerCost ReLU::cost(const std::vector<Shape>& in) const {
  LayerCost c;
  c.flops = in[0].numel();
  c.input_elems = in[0].numel();
  c.output_elems = in[0].numel();
  return c;
}

Shape Softmax::output_shape(const std::vector<Shape>& in) const {
  require_arity(in, 1, "Softmax");
  if (in[0].rank() != 1) throw std::invalid_argument("Softmax: expected rank-1 input");
  return in[0];
}

void Softmax::forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                           float* /*scratch*/) {
  require_arity(in, 1, "Softmax");
  softmax_into(*in[0], out);
  if (train) cached_output_ = out;
}

std::vector<Tensor> Softmax::backward(const Tensor& grad_out) {
  if (cached_output_.empty()) throw std::logic_error("Softmax::backward without train forward");
  const Tensor& y = cached_output_;
  float dot = 0.0f;
  for (std::int64_t i = 0; i < y.numel(); ++i) dot += grad_out[i] * y[i];
  Tensor dx(y.shape());
  for (std::int64_t i = 0; i < y.numel(); ++i) dx[i] = y[i] * (grad_out[i] - dot);
  std::vector<Tensor> grads_in;
  grads_in.push_back(std::move(dx));
  return grads_in;
}

LayerCost Softmax::cost(const std::vector<Shape>& in) const {
  LayerCost c;
  c.flops = 5LL * in[0].numel();
  c.input_elems = in[0].numel();
  c.output_elems = in[0].numel();
  return c;
}

Tensor softmax(const Tensor& logits) {
  if (logits.shape().rank() != 1) throw std::invalid_argument("softmax: expected rank-1 input");
  Tensor y(logits.shape());
  softmax_into(logits, y);
  return y;
}

}  // namespace netcut::nn
