#include "hw/trainer_model.hpp"

namespace netcut::hw {

constexpr double kPeakGflops = 3520.0;         // Tesla K20m fp32 peak
constexpr double kEfficiency = 0.35;
constexpr int kDatasetImages = 6500;           // transfer-learning training set size
constexpr int kEpochs = 55;                    // head warm-up + 50 fine-tuning epochs
constexpr double kBackwardFactor = 2.0;        // backward pass costs ~2x forward
constexpr double kPerNetworkOverheadH = 0.05;  // data pipeline, checkpointing, eval

double training_hours(double forward_flops) {
  const double total_flops =
      forward_flops * (1.0 + kBackwardFactor) * kDatasetImages * kEpochs;
  const double seconds = total_flops / (kPeakGflops * 1e9 * kEfficiency);
  return seconds / 3600.0 + kPerNetworkOverheadH;
}

}  // namespace netcut::hw
