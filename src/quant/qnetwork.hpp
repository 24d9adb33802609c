// Quantized inference (Section III-B4): QuantizedNetwork runs a fused
// graph as genuine integer execution, uint8 activations end to end.
//
// Conv2D lowers to im2col over uint8 activations plus the backend s8u8 GEMM
// (tensor::gemm_s8u8) on weights packed once at construction, in the
// GEMM's k-quad panel layout (one byte per weight); a 1x1,
// stride-1, unpadded Conv2D passes its input activation to the GEMM
// directly. Dense uses the same GEMM with N = 1. DepthwiseConv2D runs a
// channel-blocked integer kernel over a zero-point-padded tile and shares
// the GEMM nodes' requantization. Elementwise requantization (ReLU / ReLU6
// / MaxPool / Flatten) runs through 256-entry lookup tables; Add
// dequantizes through tables, sums in the float layer's order and
// requantizes; the remaining layer kinds (BatchNorm, GlobalAvgPool, AvgPool,
// Concat, Softmax) dequantize, run the float layer, and requantize. The tables
// depend only on the calibrated scales and are built once by calibrate().
// Activations and kernel scratch live in one reused tensor::Arena laid out
// once per input shape, so steady-state passes allocate nothing on the
// integer path.
//
// The simulated-quantization reference the tests compare against (fp32
// layers with a uint8 round trip after every node) lives in
// tests/quant_oracle.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "nn/network.hpp"
#include "quant/calibrate.hpp"
#include "tensor/arena.hpp"
#include "tensor/gemm.hpp"

namespace netcut::quant {

class QuantizedNetwork {
 public:
  /// Takes a *fused* inference graph (fold_batchnorm first for best
  /// accuracy), quantizing weights immediately; activation scales come
  /// from calibrate().
  explicit QuantizedNetwork(nn::Graph fused_graph);

  void calibrate(const std::vector<const tensor::Tensor*>& images,
                 const CalibrationConfig& config = {});
  bool calibrated() const { return !scales_.empty(); }

  /// Integer forward pass: uint8 activations end to end, int8 weights,
  /// int32 accumulators. Returns the dequantized output; agrees with a
  /// simulated-quantization pass over network() and scales() to within
  /// requantization rounding (the integer accumulation itself is exact).
  /// Requires calibrate() first.
  tensor::Tensor forward_int8(const tensor::Tensor& input);

  const nn::Network& network() const { return net_; }
  const ActivationScales& scales() const { return scales_; }

  /// Max per-channel weight quantization error across all layers.
  float max_weight_error() const { return max_weight_error_; }

 private:
  /// Precomputed integer form of one conv/depthwise/dense node's weights:
  /// the int8 values laid out once for their kernel (the integer GEMM's
  /// panels, or a depthwise node's tap-major channel-block lanes), so no
  /// pass repacks them; the per-output-channel scales; and
  /// per-output-channel weight sums, which fold the activation zero point
  /// out of the raw accumulator exactly (sum (a - zp) * w == sum a*w -
  /// zp * sum w in integer arithmetic).
  struct NodeWeights {
    tensor::S8Panels panels;            // conv and dense
    std::vector<std::int32_t> taps;     // depthwise
    std::vector<float> scales;          // per output channel
    std::vector<std::int32_t> rowsums;  // per output channel
  };

  /// Byte layout of the integer pass for one input shape: a uint8 activation
  /// slot per node plus one shared scratch region (im2col columns or
  /// depthwise tiles + int32 accumulators, or an Add's float sums) sized for
  /// the hungriest node; 1x1 direct convolutions need no columns. All
  /// offsets are 64-byte aligned inside the float arena.
  struct Int8Plan {
    tensor::Shape in_shape;
    std::vector<tensor::Shape> shapes;        // per-node output shape
    std::vector<std::size_t> act_offsets;     // bytes into the arena
    std::size_t cols_offset = 0;              // shared u8 im2col / depthwise tile scratch
    std::size_t acc_offset = 0;               // shared i32 GEMM accumulator / Add sums
    std::size_t total_floats = 0;
  };

  /// The 256-entry tables one node's integer kernel reads, built once by
  /// calibrate() from the scales: ReLU / ReLU6 / Flatten / MaxPool map an
  /// input byte to an output byte through `requant`; Add dequantizes its
  /// input t through dequant[t].
  struct NodeTables {
    std::array<std::uint8_t, 256> requant{};
    std::vector<std::array<float, 256>> dequant;
  };

  void plan_int8(const tensor::Shape& in_shape);

  nn::Network net_;  // weights already round-tripped through int8
  ActivationScales scales_;
  float max_weight_error_ = 0.0f;

  std::map<int, NodeWeights> node_weights_;  // conv/depthwise/dense node id -> int8 form
  std::vector<NodeTables> tables_;           // by node id; built with scales_
  Int8Plan int8_plan_;
  tensor::Arena int8_arena_;
};

}  // namespace netcut::quant
