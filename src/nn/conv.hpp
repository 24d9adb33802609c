// Standard and depthwise 2-D convolutions. Standard convolutions support
// rectangular kernels (InceptionV3 factorized 1x7 / 7x1 convolutions);
// depthwise convolutions are square (3x3 throughout the MobileNet family).
#pragma once

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace netcut::nn {

class Conv2D final : public Layer {
 public:
  /// Square kernel. pad < 0 means "same"-style padding ((kernel-1)/2).
  Conv2D(int in_channels, int out_channels, int kernel, int stride = 1, int pad = -1,
         bool bias = true);
  /// Rectangular kernel with per-axis "same" padding.
  Conv2D(int in_channels, int out_channels, int kernel_h, int kernel_w, int stride, int pad_h,
         int pad_w, bool bias);

  LayerKind kind() const override { return LayerKind::kConv2D; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Conv2D>(*this); }

  Shape output_shape(const std::vector<Shape>& in) const override;
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                    float* scratch) override;
  std::size_t forward_scratch_floats(const std::vector<Shape>& in) const override;
  /// One GEMM over the batch: the images' columns side by side into
  /// [K, B*oh*ow] (a 1x1 stride-1 conv copies its activations there), one
  /// product into [out_c, B*oh*ow], then each image's block scattered to
  /// its CHW output with the bias added. Every output is still one
  /// ascending-k FMA chain, so each lane is bitwise a forward_into. Wide
  /// output planes, which fill the GEMM alone, group fewer images per GEMM
  /// (one each from 256 pixels up, run as parallel forward_intos).
  void forward_lanes(std::span<LaneIO> lanes, float* batch_scratch) override;
  /// Columns plus product of the largest image group; zero when every
  /// image runs alone (it uses its lane scratch and writes its output
  /// directly).
  std::size_t batch_scratch_floats(const std::vector<Shape>& in, int batch) const override;
  std::vector<Tensor> backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  LayerCost cost(const std::vector<Shape>& in) const override;

  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }
  bool has_bias() const { return has_bias_; }
  int in_channels() const { return in_c_; }
  int out_channels() const { return out_c_; }
  int kernel_h() const { return kernel_h_; }
  int kernel_w() const { return kernel_w_; }
  int stride() const { return stride_; }
  int pad_h() const { return pad_h_; }
  int pad_w() const { return pad_w_; }
  /// 1x1, stride 1, no padding: im2col would copy the input unchanged, so
  /// forward passes it to the GEMM as B directly and needs no scratch.
  bool im2col_is_identity() const {
    return kernel_h_ == 1 && kernel_w_ == 1 && stride_ == 1 && pad_h_ == 0 && pad_w_ == 0;
  }
  /// The convolution's geometry over a CHW input of shape `in`.
  tensor::ConvGeometry geometry(const Shape& in) const;

 private:
  /// One GEMM over `lanes` (all of one geometry), or forward_into for one.
  void gemm_lanes(std::span<LaneIO> lanes, const tensor::ConvGeometry& g, float* batch_scratch);

  int in_c_, out_c_, kernel_h_, kernel_w_, stride_, pad_h_, pad_w_;
  bool has_bias_;
  Tensor weight_;  // [out_c, in_c, kh, kw]
  Tensor bias_;    // [out_c]
  Tensor grad_weight_, grad_bias_;

  // Cached by train-mode forward.
  Tensor cached_input_;

  // Persistent per-layer scratch (im2col columns and backward temporaries),
  // grown on demand and reused across calls instead of reallocating on every
  // forward/backward. Planned passes hand in arena scratch instead, so only
  // unplanned forwards and backward (single-threaded training) touch these.
  std::vector<float> cols_scratch_, dcols_scratch_, dw_scratch_;
};

class DepthwiseConv2D final : public Layer {
 public:
  DepthwiseConv2D(int channels, int kernel, int stride = 1, int pad = -1, bool bias = true);

  LayerKind kind() const override { return LayerKind::kDepthwiseConv2D; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<DepthwiseConv2D>(*this);
  }

  Shape output_shape(const std::vector<Shape>& in) const override;
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                    float* scratch) override;
  std::size_t forward_scratch_floats(const std::vector<Shape>& in) const override;
  std::vector<Tensor> backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  LayerCost cost(const std::vector<Shape>& in) const override;

  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }
  bool has_bias() const { return has_bias_; }
  int channels() const { return channels_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int pad() const { return pad_; }
  /// The convolution's geometry over a CHW input of shape `in`.
  tensor::ConvGeometry geometry(const Shape& in) const;

 private:
  int channels_, kernel_, stride_, pad_;
  bool has_bias_;
  Tensor weight_;  // [c, 1, k, k]
  Tensor bias_;    // [c]
  Tensor grad_weight_, grad_bias_;
  Tensor cached_input_;
  // Kernel scratch for callers that plan none (Layer::forward), grown on
  // demand and reused, as Conv2D's columns are.
  std::vector<float> scratch_;
};

}  // namespace netcut::nn
