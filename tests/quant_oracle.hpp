// Simulated-quantization reference for the integer pass.
//
// simulated_forward runs a QuantizedNetwork's graph through the fp32
// layers (its weights are already round-tripped through per-channel int8)
// and passes every node's output through a uint8 round trip on the
// calibrated per-tensor grid ("quantized on the fly per-tensor", Section
// III-B4). QuantizedNetwork::forward_int8 must track it to within
// requantization rounding; on graphs whose integer kernels do the same float
// arithmetic (table-driven ops and Add) the two agree bitwise.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "quant/qnetwork.hpp"
#include "quant/quantize.hpp"

namespace netcut::quant {

/// Round trip through uint8: the "fake quant" operator.
inline tensor::Tensor fake_quantize(const tensor::Tensor& x, const QuantParams& p) {
  tensor::Tensor out(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i)
    out[i] = dequantize_value(quantize_value(x[i], p), p);
  return out;
}

/// Max |x_fp32 - dequant(quant(x))| for a round trip.
inline float quantization_error(const tensor::Tensor& x, const QuantParams& p) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < x.numel(); ++i)
    m = std::max(m, std::abs(x[i] - dequantize_value(quantize_value(x[i], p), p)));
  return m;
}

/// The fp32 graph with a calibrated uint8 round trip after every node,
/// the input node included. Requires qnet.calibrate() first.
inline tensor::Tensor simulated_forward(const QuantizedNetwork& qnet, const tensor::Tensor& input) {
  if (!qnet.calibrated()) throw std::logic_error("simulated_forward: calibrate first");
  const nn::Graph& g = qnet.network().graph();
  const ActivationScales& scales = qnet.scales();
  const int n = g.node_count();
  std::vector<tensor::Tensor> acts(static_cast<std::size_t>(n));
  acts[0] = fake_quantize(input, scales.at(0));
  for (int id = 1; id < n; ++id) {
    const nn::Node& nd = g.node(id);
    std::vector<const tensor::Tensor*> in;
    in.reserve(nd.inputs.size());
    for (int src : nd.inputs) in.push_back(&acts[static_cast<std::size_t>(src)]);
    acts[static_cast<std::size_t>(id)] = fake_quantize(nd.layer->forward(in, false), scales.at(id));
  }
  return acts[static_cast<std::size_t>(n - 1)];
}

}  // namespace netcut::quant
