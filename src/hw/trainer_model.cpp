#include "hw/trainer_model.hpp"

#include <stdexcept>
#include <utility>

namespace netcut::hw {

TrainerModel::TrainerModel(TrainerConfig config) : config_(std::move(config)) {
  if (config_.peak_gflops <= 0 || config_.efficiency <= 0)
    throw std::invalid_argument("TrainerModel: non-positive throughput");
}

double TrainerModel::training_hours(double forward_flops) const {
  const double total_flops = forward_flops * (1.0 + config_.backward_factor) *
                             config_.dataset_images * config_.epochs;
  const double seconds = total_flops / (config_.peak_gflops * 1e9 * config_.efficiency);
  return seconds / 3600.0 + config_.per_network_overhead_h;
}

}  // namespace netcut::hw
