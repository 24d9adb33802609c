// Post-training quantization primitives (Section III-B4): weights are
// quantized per-output-channel (symmetric int8, offline), activations
// per-tensor (asymmetric uint8, scales picked from calibration statistics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace netcut::quant {

using tensor::Tensor;

/// Asymmetric affine quantization: q = clamp(round(x / scale) + zero_point).
struct QuantParams {
  float scale = 1.0f;
  int zero_point = 0;

  /// Params covering [lo, hi] with uint8 range.
  static QuantParams from_range(float lo, float hi);
};

std::uint8_t quantize_value(float x, const QuantParams& p);
float dequantize_value(std::uint8_t q, const QuantParams& p);

/// out[i] = quantize_value(x[i], p) for i < n, bit for bit, in a loop the
/// compiler vectorizes: the integer pass requantizes every output element.
void quantize_row(const float* x, std::size_t n, const QuantParams& p, std::uint8_t* out);

/// Symmetric per-output-channel int8 weight quantization for OIHW / [O, I]
/// weights: one scale per output channel (the paper's per-feature scheme).
struct ChannelQuant {
  std::vector<std::int8_t> values;  // same layout as the weight tensor
  std::vector<float> scales;        // per output channel
};

ChannelQuant quantize_weights_per_channel(const Tensor& w);
Tensor dequantize_weights(const ChannelQuant& q, const tensor::Shape& shape);

}  // namespace netcut::quant
