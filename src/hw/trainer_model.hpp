// Training-time cost model for exploration-time accounting — the stand-in
// for the paper's NVIDIA Tesla K20m training server. Blockwise exploration
// retrained 148 TRNs in 183 hours; NetCut retrained 9 in 6.7 hours (27x).
// The ratio is driven by *how many* and *how large* the retrained TRNs are,
// which this model prices from each TRN's forward FLOPs.
#pragma once

#include <string>

namespace netcut::hw {

struct TrainerConfig {
  std::string name = "k20m-sim";
  double peak_gflops = 3520.0;     // Tesla K20m fp32 peak
  double efficiency = 0.35;
  int dataset_images = 6500;       // transfer-learning training set size
  int epochs = 55;                 // head warm-up + 50 fine-tuning epochs
  double backward_factor = 2.0;    // backward pass costs ~2x forward
  double per_network_overhead_h = 0.05;  // data pipeline, checkpointing, eval
};

class TrainerModel {
 public:
  explicit TrainerModel(TrainerConfig config = {});

  const TrainerConfig& config() const { return config_; }

  /// GPU-hours to retrain one network whose forward pass (at its full
  /// training resolution) costs `forward_flops`.
  double training_hours(double forward_flops) const;

 private:
  TrainerConfig config_;
};

}  // namespace netcut::hw
