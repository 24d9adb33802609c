#include "quant/calibrate.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/stats.hpp"

namespace netcut::quant {

/// ScalePolicy::kPercentile clips each range to [100 - this, this] percentiles.
constexpr double kClipPercentile = 99.5;

ActivationScales calibrate_activations(nn::Network& net,
                                       const std::vector<const tensor::Tensor*>& images,
                                       const CalibrationConfig& config) {
  if (images.empty()) throw std::invalid_argument("calibrate_activations: no images");
  const int n = net.graph().node_count();
  std::vector<int> all_nodes;
  for (int id = 0; id < n; ++id) all_nodes.push_back(id);

  // Collect per-node sample extrema across the calibration set. For the
  // percentile policy we keep all per-image extrema and clip across them.
  std::vector<std::vector<double>> mins(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> maxs(static_cast<std::size_t>(n));
  for (const tensor::Tensor* img : images) {
    const std::vector<tensor::Tensor> acts = net.forward_collect(*img, all_nodes, false);
    for (int id = 0; id < n; ++id) {
      mins[static_cast<std::size_t>(id)].push_back(acts[static_cast<std::size_t>(id)].min());
      maxs[static_cast<std::size_t>(id)].push_back(acts[static_cast<std::size_t>(id)].max());
    }
  }

  ActivationScales scales;
  for (int id = 0; id < n; ++id) {
    double lo = 0.0, hi = 0.0;
    if (config.policy == ScalePolicy::kMinMax) {
      lo = util::min_of(mins[static_cast<std::size_t>(id)]);
      hi = util::max_of(maxs[static_cast<std::size_t>(id)]);
    } else {
      lo = util::percentile(mins[static_cast<std::size_t>(id)], 100.0 - kClipPercentile);
      hi = util::percentile(maxs[static_cast<std::size_t>(id)], kClipPercentile);
    }
    scales[id] = QuantParams::from_range(static_cast<float>(lo), static_cast<float>(hi));
  }
  return scales;
}

}  // namespace netcut::quant
