// Static activation-memory planning for graph execution.
//
// Given a Graph, its inferred shapes, the set of node ids whose activations
// a pass must hand back (`collect`), and the train/inference flag, the plan
// computes every activation's live interval — definition node to last
// consumer, with collected / train-retained activations pinned to the end
// of the pass — and assigns each activation (and each layer's per-call
// forward scratch) an offset into one shared arena via greedy best-fit, so
// buffers whose lifetimes do not overlap share the same bytes. Execution
// then binds Tensor views at those offsets instead of heap-allocating a
// fresh tensor per node per pass.
//
// The plan is a pure function of (graph structure, shapes, collect, train,
// batch): it is computed once per Network and reused across every forward of
// the same configuration.
//
// Batched passes replicate the single-image layout: lane 0's slot offsets
// are computed exactly as for batch == 1, and lane b executes at offset
// `b * lane_stride()`. Lanes are disjoint by construction (the stride is the
// aligned high-water mark of one lane), so the per-lane alias proof carries
// over to every lane and lanes may execute concurrently. One batch scratch
// slot follows the last lane: the workspace a node shares across its
// images (a Conv2D's batch-wide columns and product), sized for the
// largest node's Layer::batch_scratch_floats and reused by every node,
// since only one node executes at a time.
//
// Prefix-resume plans (resume > 0) cover only the graph suffix: node
// `resume` plays the input role — the caller supplies its activation (the
// shared trunk prefix of a cascade's deeper TRN), it owns no slot, and only
// nodes after it are planned and executed. Legal only when every node past
// `resume` reads nodes >= resume, which holds exactly when `resume` is an
// output dominator (every TRN cut site is). resume == 0 is the ordinary
// full-pass plan, bit-identical to before the parameter existed.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/graph.hpp"

namespace netcut::nn {

/// One arena slot: `floats` payload elements starting at `offset`.
struct PlanSlot {
  std::size_t offset = 0;
  std::size_t floats = 0;
};

class MemoryPlan {
 public:
  MemoryPlan() = default;
  MemoryPlan(const Graph& graph, const std::vector<Shape>& shapes,
             const std::vector<int>& collect, bool train, int batch = 1, int resume = 0);

  /// True if this plan fits a pass over the same graph with the same
  /// collect set, train flag, batch size and resume node. A batch-N plan
  /// never serves a batch-M pass (M != N): the arena capacity and lane
  /// layout differ; likewise a resume-R plan never serves a resume-S pass.
  bool matches(int node_count, const std::vector<int>& collect, bool train,
               int batch = 1, int resume = 0) const;

  /// Floats the lanes occupy (activations + per-image scratch, all lanes):
  /// lane_stride() * batch(). The batch scratch slot follows them.
  std::size_t arena_floats() const { return lane_stride_ * static_cast<std::size_t>(batch_); }
  /// The workspace every node of a batch-B pass shares (offset
  /// arena_floats()); floats == 0 for batch 1 and for graphs whose layers
  /// ask for none.
  PlanSlot batch_scratch() const { return {arena_floats(), batch_scratch_floats_}; }
  /// Arena capacity a pass needs: the lanes plus the batch scratch.
  std::size_t total_floats() const { return arena_floats() + batch_scratch_floats_; }
  /// The sum of every planned activation's size: the footprint a pass
  /// would need if no two activations shared arena bytes.
  std::size_t naive_activation_floats() const { return naive_activation_floats_; }
  /// High-water mark of the activation slots alone (scratch excluded) —
  /// the planned peak activation memory reported by benchmarks.
  std::size_t planned_activation_floats() const { return planned_activation_floats_; }

  /// Number of images a planned pass executes.
  int batch() const { return batch_; }
  /// Float offset between consecutive lanes (aligned one-lane high-water
  /// mark). Lane b's slots live at slot.offset + b * lane_stride().
  std::size_t lane_stride() const { return lane_stride_; }

  /// Activation slot of node `id` (1 <= id < node_count; node 0 views the
  /// caller's input tensor and owns no slot). Offsets are lane-0 relative.
  const PlanSlot& activation(int id) const { return activations_[static_cast<std::size_t>(id)]; }
  /// Forward-scratch slot of node `id`; floats == 0 when the layer asked
  /// for no workspace.
  const PlanSlot& scratch(int id) const { return scratch_[static_cast<std::size_t>(id)]; }
  /// Output shape of node `id` (the shape its view is bound with).
  const Shape& shape(int id) const { return shapes_[static_cast<std::size_t>(id)]; }
  /// Last node (inclusive) that reads node `id`'s activation.
  int last_use(int id) const { return last_use_[static_cast<std::size_t>(id)]; }

  /// The collect set and train flag the plan was built for. The verifier's
  /// independent alias proof re-derives live intervals from these.
  const std::vector<int>& collect() const { return collect_; }
  bool train() const { return train_; }
  /// First executed node is resume() + 1; node resume() views the caller's
  /// seed activation (0 for an ordinary full pass).
  int resume() const { return resume_; }

  int node_count() const { return static_cast<int>(activations_.size()); }

 private:
  std::vector<PlanSlot> activations_;  // indexed by node id; [0] unused
  std::vector<PlanSlot> scratch_;
  std::vector<Shape> shapes_;
  std::vector<int> last_use_;
  std::vector<int> collect_;
  bool train_ = false;
  int batch_ = 1;
  int resume_ = 0;
  std::size_t lane_stride_ = 0;
  std::size_t batch_scratch_floats_ = 0;
  std::size_t naive_activation_floats_ = 0;
  std::size_t planned_activation_floats_ = 0;
};

}  // namespace netcut::nn
