#include "quant/quantize.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace netcut::quant {

QuantParams QuantParams::from_range(float lo, float hi) {
  if (lo > hi) throw std::invalid_argument("QuantParams: lo > hi");
  // Range must include 0 so that zero maps exactly (padding correctness).
  lo = std::min(lo, 0.0f);
  hi = std::max(hi, 0.0f);
  QuantParams p;
  const float span = hi - lo;
  p.scale = span > 0.0f ? span / 255.0f : 1.0f;
  p.zero_point = static_cast<int>(std::lround(-lo / p.scale));
  p.zero_point = std::clamp(p.zero_point, 0, 255);
  return p;
}

std::uint8_t quantize_value(float x, const QuantParams& p) {
  const long q = std::lround(x / p.scale) + p.zero_point;
  return static_cast<std::uint8_t>(std::clamp(q, 0L, 255L));
}

float dequantize_value(std::uint8_t q, const QuantParams& p) {
  return (static_cast<int>(q) - p.zero_point) * p.scale;
}

void quantize_row(const float* x, std::size_t n, const QuantParams& p, std::uint8_t* out) {
  // lround without the libm call: below 2^30 in magnitude, truncate and
  // step away from zero when the dropped fraction is at least a half (the
  // subtraction is exact). Every test is an integer compare on the float's
  // bits: float compares may trap, which keeps the compiler from turning
  // the selects into vector blends. Larger, infinite and NaN quotients are
  // redone through quantize_value after the loop.
  constexpr std::uint32_t kAbs = 0x7FFFFFFFu;
  constexpr std::uint32_t kBig = 0x4E800000u;   // bits of 2^30
  constexpr std::uint32_t kHalf = 0x3F000000u;  // bits of 0.5
  const float scale = p.scale;
  const int zp = p.zero_point;
  std::uint32_t any_big = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint32_t>(x[i] / scale);
    const std::uint32_t big = (bits & kAbs) >= kBig;
    any_big |= big;
    const float v = std::bit_cast<float>(bits & (big - 1u));  // 0 when big
    const int t = static_cast<int>(v);                        // toward zero
    const std::uint32_t half = (std::bit_cast<std::uint32_t>(v - static_cast<float>(t)) & kAbs) >= kHalf;
    int q = t + static_cast<int>(half) * (1 - 2 * static_cast<int>(bits >> 31)) + zp;
    q = q < 0 ? 0 : q;
    q = q > 255 ? 255 : q;
    out[i] = static_cast<std::uint8_t>(q);
  }
  if (any_big != 0)
    for (std::size_t i = 0; i < n; ++i)
      if ((std::bit_cast<std::uint32_t>(x[i] / scale) & kAbs) >= kBig) out[i] = quantize_value(x[i], p);
}

ChannelQuant quantize_weights_per_channel(const Tensor& w) {
  if (w.shape().rank() < 2)
    throw std::invalid_argument("quantize_weights_per_channel: need >= rank-2 weights");
  const int O = w.shape()[0];
  const std::int64_t per_channel = w.numel() / O;
  ChannelQuant q;
  q.values.resize(static_cast<std::size_t>(w.numel()));
  q.scales.resize(static_cast<std::size_t>(O));
  for (int o = 0; o < O; ++o) {
    const float* src = w.data() + static_cast<std::int64_t>(o) * per_channel;
    float amax = 0.0f;
    for (std::int64_t i = 0; i < per_channel; ++i) amax = std::max(amax, std::abs(src[i]));
    const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    q.scales[static_cast<std::size_t>(o)] = scale;
    std::int8_t* dst = q.values.data() + static_cast<std::int64_t>(o) * per_channel;
    for (std::int64_t i = 0; i < per_channel; ++i) {
      const long v = std::lround(src[i] / scale);
      dst[i] = static_cast<std::int8_t>(std::clamp(v, -127L, 127L));
    }
  }
  return q;
}

Tensor dequantize_weights(const ChannelQuant& q, const tensor::Shape& shape) {
  if (static_cast<std::int64_t>(q.values.size()) != shape.numel())
    throw std::invalid_argument("dequantize_weights: size mismatch");
  const int O = shape[0];
  const std::int64_t per_channel = shape.numel() / O;
  Tensor out(shape);
  for (int o = 0; o < O; ++o) {
    const float scale = q.scales[static_cast<std::size_t>(o)];
    for (std::int64_t i = 0; i < per_channel; ++i) {
      const std::int64_t idx = static_cast<std::int64_t>(o) * per_channel + i;
      out[idx] = static_cast<float>(q.values[static_cast<std::size_t>(idx)]) * scale;
    }
  }
  return out;
}

}  // namespace netcut::quant
