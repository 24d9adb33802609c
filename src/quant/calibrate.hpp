// Activation calibration (Section III-B4): run the calibration set through
// the network, observe each node's activation range, and derive per-tensor
// quantization parameters. Two scale-selection policies: full min/max and
// clipped percentile (discarding range outliers loses less information for
// heavy-tailed activations).
#pragma once

#include <map>
#include <vector>

#include "nn/network.hpp"
#include "quant/quantize.hpp"

namespace netcut::quant {

enum class ScalePolicy { kMinMax, kPercentile };

/// kPercentile clips each activation range to the 0.5th..99.5th percentile
/// of the per-image extrema.
struct CalibrationConfig {
  ScalePolicy policy = ScalePolicy::kPercentile;
};

/// Per-node activation quantization parameters (node id -> params).
using ActivationScales = std::map<int, QuantParams>;

/// Runs every calibration image through the network and derives activation
/// scales for each graph node output (including the input node).
ActivationScales calibrate_activations(nn::Network& net,
                                       const std::vector<const tensor::Tensor*>& images,
                                       const CalibrationConfig& config = {});

}  // namespace netcut::quant
