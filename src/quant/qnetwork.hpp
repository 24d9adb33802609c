// Quantized inference paths.
//
//  * QuantizedNetwork::forward: graph-wide simulated-quantization execution —
//    every node's output passes through a calibrated uint8 round trip and all
//    conv/dense weights through a per-channel int8 round trip. Measures the
//    accuracy impact of int8 deployment on any architecture.
//  * QuantizedNetwork::forward_int8: genuine integer execution. Conv2D lowers
//    to im2col over uint8 activations plus the backend s8u8 GEMM
//    (tensor::gemm_s8u8) on weights packed once at construction; a 1x1,
//    stride-1, unpadded Conv2D passes its input activation to the GEMM
//    directly. Dense uses the same GEMM with N = 1; elementwise
//    requantization (ReLU / ReLU6 / MaxPool / Flatten) runs through 256-entry
//    lookup tables; Add dequantizes through tables, sums in the float
//    layer's order and requantizes; remaining layer kinds dequantize, run
//    the float layer, and requantize. Activations and GEMM scratch live in
//    one reused tensor::Arena laid out once per input shape, so
//    steady-state passes allocate nothing on the integer path.
//  * int8_conv2d / int8_dense: standalone integer kernels (uint8 activations
//    x int8 weights, int32 accumulators, float requantization) proving the
//    arithmetic the DeviceModel's int8 timing assumes. Unit tests check them
//    against the simulated-quantization reference.
#pragma once

#include <cstdint>
#include <map>

#include "nn/conv.hpp"
#include "nn/dense.hpp"
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

  /// Simulated-quantized forward pass (fp32 arithmetic, uint8 round trips).
  tensor::Tensor forward(const tensor::Tensor& input);

  /// Genuine integer forward pass: uint8 activations end to end, int8
  /// weights, int32 accumulators. Returns the dequantized output; agrees
  /// with forward() to within requantization rounding (the integer
  /// accumulation itself is exact). Requires calibrate() first.
  tensor::Tensor forward_int8(const tensor::Tensor& input);

  const nn::Network& network() const { return net_; }
  const ActivationScales& scales() const { return scales_; }

  /// Max per-channel weight quantization error across all layers.
  float max_weight_error() const { return max_weight_error_; }

 private:
  /// Precomputed integer form of one conv/dense node's weights: the int8
  /// values packed once into the integer GEMM's panel layout, so no pass
  /// repacks them, the per-output-channel scales, and per-output-channel
  /// weight sums, which fold the activation zero point out of the raw s8u8
  /// accumulator exactly (sum (a - zp) * w == sum a*w - zp * sum w in
  /// integer arithmetic).
  struct NodeWeights {
    tensor::S8Panels panels;
    std::vector<float> scales;          // per output channel
    std::vector<std::int32_t> rowsums;  // per output channel
  };

  /// Byte layout of the integer pass for one input shape: a uint8 activation
  /// slot per node plus one shared scratch region (im2col columns + int32
  /// accumulators, or an Add's float sums) sized for the hungriest node;
  /// 1x1 direct convolutions need no columns. All offsets are 64-byte
  /// aligned inside the float arena.
  struct Int8Plan {
    tensor::Shape in_shape;
    std::vector<tensor::Shape> shapes;        // per-node output shape
    std::vector<std::size_t> act_offsets;     // bytes into the arena
    std::size_t cols_offset = 0;              // shared u8 im2col scratch
    std::size_t acc_offset = 0;               // shared i32 GEMM accumulator / Add sums
    std::size_t total_floats = 0;
  };

  void plan_int8(const tensor::Shape& in_shape);

  nn::Network net_;  // weights already round-tripped through int8
  ActivationScales scales_;
  float max_weight_error_ = 0.0f;

  std::map<int, NodeWeights> node_weights_;  // conv/dense node id -> int8 form
  Int8Plan int8_plan_;
  tensor::Arena int8_arena_;
};

/// Integer convolution: quantizes the input with `in_params`, lowers to
/// im2col_u8 + tensor::gemm_s8u8 (uint8 x int8 -> int32), and returns the
/// float output via requantization scales. Bias is added in float. Matches
/// conv.forward on round-tripped weights to within one activation
/// quantization step.
tensor::Tensor int8_conv2d(const nn::Conv2D& conv, const tensor::Tensor& input,
                           const QuantParams& in_params);

/// Integer dense layer, same contract as int8_conv2d (s8u8 GEMM with N = 1).
tensor::Tensor int8_dense(const nn::Dense& dense, const tensor::Tensor& input,
                          const QuantParams& in_params);

}  // namespace netcut::quant
