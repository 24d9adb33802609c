// The paper's full two-stage transfer protocol (Section III-B3): train the
// new head with the trunk frozen (lr 1e-3), then continue with *every*
// layer unfrozen at a lower rate (the paper: 50 epochs at 1e-4).
//
// The TrnEvaluator used by the experiment sweeps implements only the first
// stage (on cached features — it dominates the accuracy ordering across
// cutpoints and fits the single-core budget for ~150 TRNs). This header is
// the faithful end-to-end version: real backprop through the trimmed trunk,
// BatchNorms in the frozen-statistics fine-tuning regime.
#pragma once

#include "core/evaluator.hpp"
#include "core/trn.hpp"
#include "data/hands.hpp"

namespace netcut::core {

/// The head is the default HeadConfig; stage 1 trains at 1e-3, stage 2 at
/// 1e-4 (the paper's rates).
struct FinetuneConfig {
  int head_epochs = 8;       // stage 1: head only, trunk frozen
  int full_epochs = 2;       // stage 2: all layers
  std::uint64_t seed = 99;
};

struct FinetuneResult {
  AccuracyResult after_head;  // test accuracy after stage 1
  AccuracyResult after_full;  // test accuracy after stage 2
  double stage1_final_loss = 0.0;
  double stage2_final_loss = 0.0;
};

/// Builds the TRN (trunk cut at `cut_node` + fresh head) from an already
/// pretrained trunk and runs both training stages on the dataset's train
/// split, evaluating angular similarity on the test split after each stage.
FinetuneResult finetune_trn(const nn::Graph& pretrained_trunk, int cut_node,
                            const data::HandsDataset& dataset, const FinetuneConfig& config);

}  // namespace netcut::core
