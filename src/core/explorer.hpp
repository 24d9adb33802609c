// Blockwise exhaustive exploration — the baseline NetCut accelerates.
// Enumerates every blockwise TRN of every base network, retrains each one,
// measures each on the device, and prices the total retraining bill on the
// training-server model (the paper's "148 networks, 183 hours").
//
// Completed retrainings live in the evaluator's crash-safe accuracy memo, so
// an interrupted sweep resumes from the rows it finished, and a sweep whose
// every cut is already memoized skips feature extraction altogether.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "core/lab.hpp"

namespace netcut::core {

struct Candidate {
  zoo::NetId base;
  std::string base_name;
  std::string trn_name;       // "ResNet50/113"
  int cut_node = 0;
  int blocks_removed = 0;
  int layers_removed = 0;
  int layers_remaining = 0;
  double latency_ms = 0.0;    // measured, native resolution
  double accuracy = 0.0;      // mean angular similarity, retrained head
  double top1 = 0.0;
  double train_hours = 0.0;   // retraining cost on the trainer model
};

class BlockwiseExplorer {
 public:
  BlockwiseExplorer(LatencyLab& lab, TrnEvaluator& evaluator);

  /// All blockwise TRNs of one base network (1..B-1 blocks removed; at
  /// least one block is always kept). include_full adds the untrimmed
  /// network (0 blocks removed).
  std::vector<Candidate> explore(zoo::NetId base, bool include_full);

  /// The full sweep over all seven networks.
  std::vector<Candidate> explore_all(bool include_full);

  /// Iterative (per-layer) sweep for one network — the exhaustive baseline
  /// of Fig 4.
  std::vector<Candidate> explore_iterative(zoo::NetId base, bool include_full);

  /// Total retraining bill of a candidate set.
  static double total_train_hours(const std::vector<Candidate>& candidates);

 private:
  /// Candidate with all LatencyLab-derived fields filled, accuracy pending.
  Candidate lab_stub(zoo::NetId base, int cut_node, int blocks_removed);
  /// Two-phase batch evaluation: serial lab metadata, then the independent
  /// per-TRN head retrainings fanned out across the thread pool.
  std::vector<Candidate> evaluate_cuts(zoo::NetId base,
                                       const std::vector<std::pair<int, int>>& cuts);

  LatencyLab& lab_;
  TrnEvaluator& evaluator_;
};

}  // namespace netcut::core
