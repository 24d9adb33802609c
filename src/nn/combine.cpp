#include "nn/combine.hpp"

#include <cstring>
#include <stdexcept>

namespace netcut::nn {

Shape Input::output_shape(const std::vector<Shape>& in) const {
  if (!in.empty() && in[0] != shape_)
    throw std::invalid_argument("Input: shape mismatch with declared shape");
  return shape_;
}

void Input::forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool /*train*/,
                         float* /*scratch*/) {
  require_arity(in, 1, "Input");
  out.copy_from(*in[0]);
}

std::vector<Tensor> Input::backward(const Tensor& grad_out) {
  std::vector<Tensor> grads_in;
  grads_in.push_back(grad_out);
  return grads_in;
}

LayerCost Input::cost(const std::vector<Shape>& /*in*/) const { return {}; }

Add::Add(int arity) : arity_(arity) {
  if (arity < 2) throw std::invalid_argument("Add: arity must be >= 2");
}

Shape Add::output_shape(const std::vector<Shape>& in) const {
  require_arity(in, arity_, "Add");
  for (const auto& s : in)
    if (s != in[0]) throw std::invalid_argument("Add: input shape mismatch");
  return in[0];
}

void Add::forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool /*train*/,
                       float* /*scratch*/) {
  require_arity(in, arity_, "Add");
  out.copy_from(*in[0]);
  for (int i = 1; i < arity_; ++i) {
    const float* src = in[static_cast<std::size_t>(i)]->data();
    float* dst = out.data();
    for (std::int64_t j = 0; j < out.numel(); ++j) dst[j] += src[j];
  }
}

std::vector<Tensor> Add::backward(const Tensor& grad_out) {
  std::vector<Tensor> grads_in;
  for (int i = 0; i < arity_; ++i) grads_in.push_back(grad_out);
  return grads_in;
}

LayerCost Add::cost(const std::vector<Shape>& in) const {
  LayerCost c;
  c.flops = static_cast<std::int64_t>(arity_ - 1) * in[0].numel();
  c.input_elems = static_cast<std::int64_t>(arity_) * in[0].numel();
  c.output_elems = in[0].numel();
  return c;
}

Concat::Concat(int arity) : arity_(arity) {
  if (arity < 2) throw std::invalid_argument("Concat: arity must be >= 2");
}

Shape Concat::output_shape(const std::vector<Shape>& in) const {
  require_arity(in, arity_, "Concat");
  int channels = 0;
  for (const auto& s : in) {
    if (s.rank() != 3) throw std::invalid_argument("Concat: expected CHW inputs");
    if (s[1] != in[0][1] || s[2] != in[0][2])
      throw std::invalid_argument("Concat: spatial dims mismatch");
    channels += s[0];
  }
  return Shape::chw(channels, in[0][1], in[0][2]);
}

void Concat::forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                          float* /*scratch*/) {
  require_arity(in, arity_, "Concat");
  float* dst = out.data();
  for (const Tensor* t : in) {
    std::memcpy(dst, t->data(), sizeof(float) * static_cast<std::size_t>(t->numel()));
    dst += t->numel();
  }
  if (train) {
    cached_channels_.clear();
    for (const Tensor* t : in) cached_channels_.push_back(t->shape()[0]);
    cached_h_ = in[0]->shape()[1];
    cached_w_ = in[0]->shape()[2];
  }
}

std::vector<Tensor> Concat::backward(const Tensor& grad_out) {
  if (cached_channels_.empty())
    throw std::logic_error("Concat::backward without train forward");
  std::vector<Tensor> grads_in;
  const float* src = grad_out.data();
  for (int c : cached_channels_) {
    Tensor g(Shape::chw(c, cached_h_, cached_w_));
    std::memcpy(g.data(), src, sizeof(float) * static_cast<std::size_t>(g.numel()));
    src += g.numel();
    grads_in.push_back(std::move(g));
  }
  return grads_in;
}

LayerCost Concat::cost(const std::vector<Shape>& in) const {
  const Shape out = output_shape(in);
  LayerCost c;
  c.input_elems = out.numel();
  c.output_elems = out.numel();
  return c;
}

Shape Flatten::output_shape(const std::vector<Shape>& in) const {
  require_arity(in, 1, "Flatten");
  return Shape::vec(static_cast<int>(in[0].numel()));
}

void Flatten::forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                           float* /*scratch*/) {
  require_arity(in, 1, "Flatten");
  if (train) cached_in_shape_ = in[0]->shape();
  std::memcpy(out.data(), in[0]->data(),
              sizeof(float) * static_cast<std::size_t>(in[0]->numel()));
}

std::vector<Tensor> Flatten::backward(const Tensor& grad_out) {
  if (cached_in_shape_.rank() == 0)
    throw std::logic_error("Flatten::backward without train forward");
  std::vector<Tensor> grads_in;
  grads_in.push_back(grad_out.reshaped(cached_in_shape_));
  return grads_in;
}

LayerCost Flatten::cost(const std::vector<Shape>& in) const {
  LayerCost c;
  c.input_elems = in[0].numel();
  c.output_elems = in[0].numel();
  return c;
}

}  // namespace netcut::nn
