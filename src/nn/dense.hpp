// Fully-connected layer over rank-1 inputs.
#pragma once

#include "nn/layer.hpp"

namespace netcut::nn {

class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features, bool bias = true);

  LayerKind kind() const override { return LayerKind::kDense; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Dense>(*this); }

  Shape output_shape(const std::vector<Shape>& in) const override;
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                    float* scratch) override;
  std::vector<Tensor> backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  LayerCost cost(const std::vector<Shape>& in) const override;

  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }
  bool has_bias() const { return has_bias_; }
  int in_features() const { return in_f_; }
  int out_features() const { return out_f_; }

 private:
  int in_f_, out_f_;
  bool has_bias_;
  Tensor weight_;  // [out, in]
  Tensor bias_;    // [out]
  Tensor grad_weight_, grad_bias_;
  Tensor cached_input_;
};

}  // namespace netcut::nn
