#include "core/explorer.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace netcut::core {

BlockwiseExplorer::BlockwiseExplorer(LatencyLab& lab, TrnEvaluator& evaluator)
    : lab_(lab), evaluator_(evaluator) {}

Candidate BlockwiseExplorer::lab_stub(zoo::NetId base, int cut_node, int blocks_removed) {
  Candidate c;
  c.base = base;
  c.base_name = zoo::net_name(base);
  c.trn_name = lab_.name(base, cut_node);
  c.cut_node = cut_node;
  c.blocks_removed = blocks_removed;
  c.layers_removed = lab_.layers_removed(base, cut_node);
  c.layers_remaining = lab_.layers_remaining(base, cut_node);
  c.latency_ms = lab_.measured_ms(base, cut_node);
  c.train_hours = lab_.training_hours(base, cut_node);
  return c;
}

std::vector<Candidate> BlockwiseExplorer::evaluate_cuts(
    zoo::NetId base, const std::vector<std::pair<int, int>>& cuts) {
  // Phase 1 (serial): the LatencyLab is not thread-safe (memo maps), but its
  // analytical measurements are cheap relative to head retraining.
  std::vector<Candidate> out;
  out.reserve(cuts.size());
  for (const auto& [cut_node, blocks_removed] : cuts)
    out.push_back(lab_stub(base, cut_node, blocks_removed));

  // Phase 2 (parallel): per-cut head retraining dominates and each TRN is
  // independent. Feature extraction happens once, up front, at the outer
  // parallelism level, and only if some cut is not memoized yet; each
  // candidate's head is seeded from its cut key, so the result set is
  // identical at any thread count.
  if (std::any_of(out.begin(), out.end(), [&](const Candidate& c) {
        return !evaluator_.memoized(base, c.cut_node);
      }))
    evaluator_.prepare(base);
  util::parallel_for(
      0, static_cast<std::int64_t>(out.size()), 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          Candidate& c = out[static_cast<std::size_t>(i)];
          const AccuracyResult acc = evaluator_.accuracy(base, c.cut_node);
          c.accuracy = acc.angular_similarity;
          c.top1 = acc.top1;
        }
      });
  return out;
}

std::vector<Candidate> BlockwiseExplorer::explore(zoo::NetId base, bool include_full) {
  const std::vector<int>& cuts = lab_.blockwise(base);
  std::vector<std::pair<int, int>> plan;
  if (include_full) plan.emplace_back(lab_.full_cut(base), 0);
  const int blocks = static_cast<int>(cuts.size());
  // Removing the last k blocks keeps blocks 0..B-1-k; always keep >= 1.
  for (int k = 1; k <= blocks - 1; ++k)
    plan.emplace_back(cuts[static_cast<std::size_t>(blocks - 1 - k)], k);
  return evaluate_cuts(base, plan);
}

std::vector<Candidate> BlockwiseExplorer::explore_all(bool include_full) {
  std::vector<Candidate> out;
  for (zoo::NetId id : zoo::all_nets()) {
    std::vector<Candidate> per = explore(id, include_full);
    out.insert(out.end(), per.begin(), per.end());
  }
  return out;
}

std::vector<Candidate> BlockwiseExplorer::explore_iterative(zoo::NetId base,
                                                            bool include_full) {
  const std::vector<int>& cuts = lab_.iterative(base);
  std::vector<std::pair<int, int>> plan;
  const int n = static_cast<int>(cuts.size());
  // cuts.back() is the trunk output; earlier entries remove progressively
  // more layers. Keep at least the first dominator.
  for (int i = n - 1; i >= 1; --i) {
    const bool is_full = i == n - 1;
    if (is_full && !include_full) continue;
    plan.emplace_back(cuts[static_cast<std::size_t>(i)], is_full ? 0 : -1);
  }
  return evaluate_cuts(base, plan);
}

}  // namespace netcut::core
