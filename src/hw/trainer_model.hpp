// Training-time cost model for exploration-time accounting — the stand-in
// for the paper's NVIDIA Tesla K20m training server. Blockwise exploration
// retrained 148 TRNs in 183 hours; NetCut retrained 9 in 6.7 hours (27x).
// The ratio is driven by *how many* and *how large* the retrained TRNs are,
// which this model prices from each TRN's forward FLOPs.
#pragma once

namespace netcut::hw {

/// GPU-hours to retrain one network whose forward pass (at its full
/// training resolution) costs `forward_flops`: forward + backward (~2x
/// forward) over a 6500-image training set for 55 epochs (head warm-up +
/// 50 fine-tuning epochs) at 35% of a K20m's 3520 GFLOP/s fp32 peak, plus
/// 0.05 h per network for the data pipeline, checkpointing and evaluation.
double training_hours(double forward_flops);

}  // namespace netcut::hw
