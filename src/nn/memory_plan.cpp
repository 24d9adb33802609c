#include "nn/memory_plan.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "nn/verify.hpp"

namespace netcut::nn {

namespace {

// Slots are aligned to 64 bytes so every arena view starts on a cache-line
// (and vector-ISA) boundary, matching the arena base alignment.
constexpr std::size_t kAlignFloats = 16;

std::size_t align_up(std::size_t floats) {
  return (floats + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

struct Placed {
  std::size_t offset, floats;  // floats is the aligned reservation
  int def, last;               // live interval, inclusive
};

/// Greedy best-fit: choose the smallest gap between already-placed slots
/// whose live intervals overlap [def, last] that still fits `floats`;
/// append past them when no gap fits. Deterministic given placement order.
std::size_t place(std::vector<Placed>& placed, std::size_t floats, int def, int last) {
  std::vector<std::pair<std::size_t, std::size_t>> busy;  // [offset, end)
  for (const Placed& p : placed)
    if (p.def <= last && def <= p.last) busy.emplace_back(p.offset, p.offset + p.floats);
  std::sort(busy.begin(), busy.end());

  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t best = kNone, best_gap = kNone, cursor = 0;
  for (const auto& [b, e] : busy) {
    if (b > cursor) {
      const std::size_t gap = b - cursor;
      if (gap >= floats && gap < best_gap) {
        best = cursor;
        best_gap = gap;
      }
    }
    cursor = std::max(cursor, e);
  }
  const std::size_t offset = best != kNone ? best : cursor;
  placed.push_back({offset, floats, def, last});
  return offset;
}

std::size_t high_water(const std::vector<Placed>& placed) {
  std::size_t peak = 0;
  for (const Placed& p : placed) peak = std::max(peak, p.offset + p.floats);
  return peak;
}

}  // namespace

MemoryPlan::MemoryPlan(const Graph& graph, const std::vector<Shape>& shapes,
                       const std::vector<int>& collect, bool train, int batch, int resume)
    : shapes_(shapes), collect_(collect), train_(train), batch_(batch), resume_(resume) {
  const int n = graph.node_count();
  if (static_cast<int>(shapes.size()) != n)
    throw std::invalid_argument("MemoryPlan: shape count does not match graph");
  if (n < 1) throw std::invalid_argument("MemoryPlan: empty graph");
  if (batch < 1) throw std::invalid_argument("MemoryPlan: batch must be >= 1");
  if (batch > 1 && train)
    throw std::invalid_argument("MemoryPlan: batched plans are inference-only");
  if (resume < 0 || resume >= n - 1)
    throw std::invalid_argument("MemoryPlan: resume node out of range");
  if (resume > 0) {
    if (train) throw std::invalid_argument("MemoryPlan: resume plans are inference-only");
    // The resumed suffix may only read the seed node or nodes after it;
    // an edge reaching behind the seed means `resume` does not dominate
    // the output and the prefix activations it skipped would be needed.
    for (int id = resume + 1; id < n; ++id)
      for (int src : graph.node(id).inputs)
        if (src < resume)
          throw std::invalid_argument("MemoryPlan: edge severed by resume node");
    for (int id : collect)
      if (id < resume)
        throw std::invalid_argument("MemoryPlan: collect id precedes resume node");
  }

  // Live intervals: definition to last consumer. The output node, collected
  // nodes, and (train) every node are pinned to the end of the pass —
  // collected activations are read back after execution, and train-mode
  // passes retain everything for the backward DAG walk.
  const int end = n - 1;
  last_use_.resize(static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) last_use_[static_cast<std::size_t>(id)] = id;
  for (int id = 1; id < n; ++id)
    for (int src : graph.node(id).inputs)
      last_use_[static_cast<std::size_t>(src)] =
          std::max(last_use_[static_cast<std::size_t>(src)], id);
  for (int id : collect) {
    if (id < 0 || id >= n) throw std::out_of_range("MemoryPlan: collect id out of range");
    last_use_[static_cast<std::size_t>(id)] = end;
  }
  last_use_[static_cast<std::size_t>(end)] = end;
  if (train)
    for (int& l : last_use_) l = end;

  // Activations first (their packing defines the reported activation peak),
  // in definition order; scratch slots fill remaining gaps afterwards.
  // Nodes at or before the resume seed are not executed and own no slot
  // (node `resume` views the caller's seed activation, like node 0 views
  // the input on a full pass).
  activations_.assign(static_cast<std::size_t>(n), PlanSlot{});
  scratch_.assign(static_cast<std::size_t>(n), PlanSlot{});
  std::vector<Placed> placed;
  placed.reserve(static_cast<std::size_t>(n));
  for (int id = resume + 1; id < n; ++id) {
    const std::size_t floats = static_cast<std::size_t>(shapes[static_cast<std::size_t>(id)].numel());
    naive_activation_floats_ += floats;
    PlanSlot& slot = activations_[static_cast<std::size_t>(id)];
    slot.floats = floats;
    slot.offset = place(placed, align_up(floats), id, last_use_[static_cast<std::size_t>(id)]);
  }
  planned_activation_floats_ = high_water(placed);

  // Per-node forward scratch lives only while its node executes.
  for (int id = resume + 1; id < n; ++id) {
    const Node& nd = graph.node(id);
    std::vector<Shape> in;
    in.reserve(nd.inputs.size());
    for (int src : nd.inputs) in.push_back(shapes[static_cast<std::size_t>(src)]);
    batch_scratch_floats_ =
        std::max(batch_scratch_floats_, align_up(nd.layer->batch_scratch_floats(in, batch)));
    const std::size_t floats = nd.layer->forward_scratch_floats(in);
    if (floats == 0) continue;
    PlanSlot& slot = scratch_[static_cast<std::size_t>(id)];
    slot.floats = floats;
    slot.offset = place(placed, align_up(floats), id, id);
  }
  // The one-lane high-water mark is already kAlignFloats-aligned (every slot
  // starts and ends on an aligned boundary), so using it directly as the
  // lane stride keeps every lane's views cache-line aligned.
  lane_stride_ = high_water(placed);

  // Every plan the greedy assignment emits is proven non-aliasing by the
  // verifier's independent interval re-derivation before it can be used
  // (no-op under NETCUT_VERIFY=0).
  check_plan(graph, *this, "MemoryPlan");
}

bool MemoryPlan::matches(int node_count, const std::vector<int>& collect, bool train,
                         int batch, int resume) const {
  return node_count == this->node_count() && train == train_ && batch == batch_ &&
         resume == resume_ && collect == collect_;
}

}  // namespace netcut::nn
