// Spatial pooling. Windows are clamped to the valid input region, which
// makes these layers robust at the tiny spatial sizes used by the
// CPU-scale experiments (behaves like ceil_mode + count_include_pad=false).
#pragma once

#include "nn/layer.hpp"

namespace netcut::nn {

class Pool2D final : public Layer {
 public:
  enum class Mode { kMax, kAvg };

  /// pad < 0 means "same"-style padding ((kernel-1)/2).
  Pool2D(Mode mode, int kernel, int stride, int pad = -1);

  LayerKind kind() const override {
    return mode_ == Mode::kMax ? LayerKind::kMaxPool : LayerKind::kAvgPool;
  }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Pool2D>(*this); }

  Shape output_shape(const std::vector<Shape>& in) const override;
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                    float* scratch) override;
  std::vector<Tensor> backward(const Tensor& grad_out) override;
  LayerCost cost(const std::vector<Shape>& in) const override;

  Mode mode() const { return mode_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int pad() const { return pad_; }

 private:
  Mode mode_;
  int kernel_, stride_, pad_;
  Shape cached_in_shape_;
  std::vector<int> cached_argmax_;  // max mode: flat input index per output
};

class GlobalAvgPool final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kGlobalAvgPool; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<GlobalAvgPool>(*this);
  }

  Shape output_shape(const std::vector<Shape>& in) const override;
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                    float* scratch) override;
  std::vector<Tensor> backward(const Tensor& grad_out) override;
  LayerCost cost(const std::vector<Shape>& in) const override;

 private:
  Shape cached_in_shape_;
};

}  // namespace netcut::nn
