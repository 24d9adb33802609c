// im2col / col2im lowering for convolutions, plus the shared output-size
// arithmetic. Kernels may be rectangular (InceptionV3 uses 1x7 / 7x1
// factorized convolutions).
#pragma once

#include "tensor/tensor.hpp"

namespace netcut::tensor {

struct ConvGeometry {
  int in_c = 0, in_h = 0, in_w = 0;
  int kernel_h = 1, kernel_w = 1;
  int stride = 1;
  int pad_h = 0, pad_w = 0;  // symmetric per-axis padding
  int out_h() const { return (in_h + 2 * pad_h - kernel_h) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad_w - kernel_w) / stride + 1; }
  int patch() const { return kernel_h * kernel_w; }
};

/// Pad so that out = in for stride 1 and odd kernels ("same").
int same_pad(int kernel);

/// cols has shape [in_c*kernel_h*kernel_w, out_h*out_w] (row-major).
void im2col(const float* img, const ConvGeometry& g, float* cols);
/// The columns of `batch` images side by side: cols has shape
/// [in_c*kernel_h*kernel_w, batch*out_h*out_w], image b owning columns
/// [b*out_h*out_w, (b+1)*out_h*out_w) of every row. Work is split by
/// channel, so each thread writes whole rows (nn::Conv2D::forward_lanes).
void im2col_batch(const float* const* imgs, int batch, const ConvGeometry& g, float* cols);

/// Scatter-add the column matrix back into an image (gradient of im2col).
/// img must be zero-initialized by the caller.
void col2im(const float* cols, const ConvGeometry& g, float* img);

/// im2col over a quantized uint8 image for the integer inference path.
/// Out-of-bounds taps are filled with `zero_point` — the quantized encoding
/// of real 0 — so the s8u8 GEMM treats padding exactly like the float
/// kernel treats zero padding.
void im2col_u8(const std::uint8_t* img, const ConvGeometry& g, std::uint8_t* cols,
               std::uint8_t zero_point);

/// Depthwise convolution of a CHW image: output channel c is input channel c
/// convolved with w[c, kh, kw] (g.in_c channels, square g.kernel_h kernel,
/// g.pad_h padding) plus bias[c] (no bias when bias is nullptr). Each output
/// is the bias, then its in-bounds taps in (kh, kw) order; taps in the
/// padding are skipped. Dispatches through the active KernelBackend, and the
/// backends agree bit for bit. `scratch` holds depthwise_scratch_floats(g)
/// floats; the scalar backend ignores it.
void depthwise_conv(const float* img, const float* w, const float* bias, float* out,
                    const ConvGeometry& g, float* scratch);

/// Scratch floats depthwise_conv needs for geometry g under either backend
/// (the simd backend's channel-block regions; tensor/backend_simd.cpp).
std::size_t depthwise_scratch_floats(const ConvGeometry& g);

}  // namespace netcut::tensor
