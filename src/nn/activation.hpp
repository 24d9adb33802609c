// Elementwise activations and the terminal softmax.
#pragma once

#include "nn/layer.hpp"

namespace netcut::nn {

/// ReLU, or ReLU6 when clipped (MobileNet family uses ReLU6).
class ReLU final : public Layer {
 public:
  explicit ReLU(bool clip_at_6 = false) : clip6_(clip_at_6) {}

  LayerKind kind() const override { return clip6_ ? LayerKind::kReLU6 : LayerKind::kReLU; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<ReLU>(*this); }

  Shape output_shape(const std::vector<Shape>& in) const override;
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                    float* scratch) override;
  std::vector<Tensor> backward(const Tensor& grad_out) override;
  LayerCost cost(const std::vector<Shape>& in) const override;

 private:
  bool clip6_;
  Tensor cached_input_;
};

/// Softmax over a rank-1 tensor. Backward uses the cached output:
/// dx = y ⊙ (dy − ⟨dy, y⟩).
class Softmax final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kSoftmax; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Softmax>(*this); }

  Shape output_shape(const std::vector<Shape>& in) const override;
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                    float* scratch) override;
  std::vector<Tensor> backward(const Tensor& grad_out) override;
  LayerCost cost(const std::vector<Shape>& in) const override;

 private:
  Tensor cached_output_;
};

/// Standalone numerically-stable softmax on a rank-1 tensor.
Tensor softmax(const Tensor& logits);

}  // namespace netcut::nn
