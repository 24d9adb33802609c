#include "nn/dense.hpp"

#include <stdexcept>

#include "tensor/gemm.hpp"

namespace netcut::nn {

Dense::Dense(int in_features, int out_features, bool bias)
    : in_f_(in_features),
      out_f_(out_features),
      has_bias_(bias),
      weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}) {
  if (in_features <= 0 || out_features <= 0)
    throw std::invalid_argument("Dense: invalid feature counts");
}

Shape Dense::output_shape(const std::vector<Shape>& in) const {
  require_arity(in, 1, "Dense");
  if (in[0].rank() != 1 || in[0][0] != in_f_)
    throw std::invalid_argument("Dense: expected rank-1 input of " + std::to_string(in_f_) +
                                " features, got " + in[0].to_string());
  return Shape::vec(out_f_);
}

void Dense::forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                         float* /*scratch*/) {
  require_arity(in, 1, "Dense");
  const Tensor& x = *in[0];
  tensor::gemv(weight_.data(), x.data(), out.data(), out_f_, in_f_);
  if (has_bias_)
    for (int o = 0; o < out_f_; ++o) out[o] += bias_[o];
  if (train) cached_input_ = x;
}

std::vector<Tensor> Dense::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) throw std::logic_error("Dense::backward without train forward");
  const Tensor& x = cached_input_;
  if (grad_weight_.empty()) grads();
  // dW += dy * x^T ; db += dy ; dx = W^T dy
  for (int o = 0; o < out_f_; ++o) {
    const float g = grad_out[o];
    if (has_bias_) grad_bias_[o] += g;
    if (g == 0.0f) continue;
    float* wrow = grad_weight_.data() + static_cast<std::int64_t>(o) * in_f_;
    for (int i = 0; i < in_f_; ++i) wrow[i] += g * x[i];
  }
  Tensor dx(Shape::vec(in_f_));
  tensor::gemv_t(weight_.data(), grad_out.data(), dx.data(), out_f_, in_f_);
  std::vector<Tensor> grads_in;
  grads_in.push_back(std::move(dx));
  return grads_in;
}

std::vector<Tensor*> Dense::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::vector<Tensor*> Dense::grads() {
  grad_for(grad_weight_, weight_);
  if (has_bias_) return {&grad_weight_, &grad_for(grad_bias_, bias_)};
  return {&grad_weight_};
}

LayerCost Dense::cost(const std::vector<Shape>& in) const {
  output_shape(in);  // validates
  LayerCost c;
  c.flops = 2LL * in_f_ * out_f_ + (has_bias_ ? out_f_ : 0);
  c.params = weight_.numel() + (has_bias_ ? bias_.numel() : 0);
  c.input_elems = in_f_;
  c.output_elems = out_f_;
  c.kernel = 0;
  return c;
}

}  // namespace netcut::nn
