// Multi-input combinators (residual Add, channel Concat) plus the trivial
// Input placeholder and Flatten.
#pragma once

#include "nn/layer.hpp"

namespace netcut::nn {

/// Graph entry point; identity. Holds the declared input shape.
class Input final : public Layer {
 public:
  explicit Input(Shape shape) : shape_(std::move(shape)) {}

  LayerKind kind() const override { return LayerKind::kInput; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Input>(*this); }

  Shape output_shape(const std::vector<Shape>& in) const override;
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                    float* scratch) override;
  std::vector<Tensor> backward(const Tensor& grad_out) override;
  LayerCost cost(const std::vector<Shape>& in) const override;

  const Shape& declared_shape() const { return shape_; }

 private:
  Shape shape_;
};

/// Elementwise sum of >= 2 equal-shaped inputs (residual connections).
class Add final : public Layer {
 public:
  explicit Add(int arity = 2);

  LayerKind kind() const override { return LayerKind::kAdd; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Add>(*this); }

  Shape output_shape(const std::vector<Shape>& in) const override;
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                    float* scratch) override;
  std::vector<Tensor> backward(const Tensor& grad_out) override;
  LayerCost cost(const std::vector<Shape>& in) const override;

  int arity() const { return arity_; }

 private:
  int arity_;
};

/// Channel-axis concatenation of CHW inputs with matching H, W
/// (Inception branches, DenseNet feature reuse).
class Concat final : public Layer {
 public:
  explicit Concat(int arity);

  LayerKind kind() const override { return LayerKind::kConcat; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Concat>(*this); }

  Shape output_shape(const std::vector<Shape>& in) const override;
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                    float* scratch) override;
  std::vector<Tensor> backward(const Tensor& grad_out) override;
  LayerCost cost(const std::vector<Shape>& in) const override;

  int arity() const { return arity_; }

 private:
  int arity_;
  std::vector<int> cached_channels_;
  int cached_h_ = 0, cached_w_ = 0;
};

/// CHW -> rank-1 vector.
class Flatten final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kFlatten; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Flatten>(*this); }

  Shape output_shape(const std::vector<Shape>& in) const override;
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                    float* scratch) override;
  std::vector<Tensor> backward(const Tensor& grad_out) override;
  LayerCost cost(const std::vector<Shape>& in) const override;

 private:
  Shape cached_in_shape_;
};

}  // namespace netcut::nn
