// Network: an executable wrapper around a Graph. Owns per-node activation
// storage for forward passes and gradient accumulators for backward passes.
//
// Every forward pass runs through one executor: a MemoryPlan assigns every
// activation and per-layer scratch buffer an offset into one arena, and
// layers write through forward_into into views bound at those offsets, so a
// steady-state pass performs no per-node heap allocation. Batched passes
// run one such lane per image over disjoint arena regions. Tensors handed
// back to the caller (the output, collected activations) are deep-copied
// out of the arena by Tensor's materializing copy semantics.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/graph.hpp"
#include "nn/memory_plan.hpp"
#include "tensor/arena.hpp"

namespace netcut::nn {

struct VerifyReport;

class Network {
 public:
  explicit Network(Graph graph);

  // The activation arena is move-only; copies start with a fresh (empty)
  // arena and re-reserve lazily on their first planned forward.
  Network(const Network& other);
  Network& operator=(const Network& other);
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  const Graph& graph() const { return graph_; }
  Graph& graph() { return graph_; }

  /// Run the network on one CHW image (or feature vector) of the graph's
  /// declared input shape (std::invalid_argument otherwise); returns the
  /// output node's activation. With train=true, layers cache for backward
  /// and activations are retained for the DAG backward pass.
  Tensor forward(const Tensor& input, bool train = false);

  /// Forward that also returns the activations of `collect` node ids
  /// (in the same order). Used to harvest features at candidate cutpoints
  /// in a single pass.
  std::vector<Tensor> forward_collect(const Tensor& input, const std::vector<int>& collect,
                                      bool train = false);

  /// Inference-only batched forward: one output per input, in order. The
  /// arena is laid out as `inputs.size()` disjoint lanes (planned once per
  /// batch size and cached) and lanes run concurrently on the pool; every
  /// kernel is deterministic at any thread count, so the
  /// result is bitwise identical to `inputs.size()` independent single-image
  /// forwards — the serving layer relies on exactly that equivalence. All
  /// inputs must share one shape. Same as forward_from_batch(0, inputs).
  std::vector<Tensor> forward_batch(const std::vector<const Tensor*>& inputs);

  /// Inference-only forward that resumes mid-graph: node `resume` is seeded
  /// with `seed` (an activation the caller already computed, e.g. the shared
  /// trunk prefix of a cascade's deeper TRN) and only nodes after it
  /// execute, so a cascade escalation pays just the delta layers. Legal only
  /// when no node past `resume` reads behind it (true whenever `resume` is a
  /// cut site / output dominator); throws std::invalid_argument otherwise,
  /// or when `seed`'s shape differs from node `resume`'s inferred shape.
  /// Bitwise identical to the suffix of a full forward whose prefix produced
  /// `seed`; resume == 0 is the ordinary full forward.
  Tensor forward_from(int resume, const Tensor& seed);

  /// Batched counterpart of forward_from: one output per seed (all sharing
  /// node `resume`'s shape), planned as disjoint arena lanes and bitwise
  /// identical to seeds.size() independent forward_from calls.
  std::vector<Tensor> forward_from_batch(int resume, const std::vector<const Tensor*>& seeds);

  /// Backpropagate from a gradient w.r.t. the output of the most recent
  /// train-mode forward. Parameter gradients accumulate in the layers.
  void backward(const Tensor& grad_output);

  /// Backpropagate from gradients seeded at several nodes simultaneously
  /// (deep supervision: auxiliary heads contribute to one backward pass).
  void backward_multi(const std::vector<std::pair<int, Tensor>>& seed_grads);

  std::vector<Tensor*> params();
  std::vector<Tensor*> grads();
  void zero_grads();

  std::int64_t total_flops() const { return graph_.total_cost().flops; }

  /// Output shape at the declared input resolution.
  Shape output_shape() const;

  /// The (cached) memory plan for a pass with this collect set / train flag
  /// / batch size / resume node. Exposed so tests and benchmarks can inspect
  /// the planned footprint (and that distinct batch sizes or resume nodes
  /// never share a plan).
  const MemoryPlan& plan_for(const std::vector<int>& collect, bool train, int batch = 1,
                             int resume = 0);

 private:
  void check_resume(int resume) const;
  /// The one node loop: seeds node `resume` with a view of `seed` (whose
  /// shape must equal that node's inferred shape, else std::invalid_argument),
  /// then runs every later node into its planned slot, offset by `base`
  /// floats (the lane). `acts` (node_count() entries) receives the views;
  /// inference drops a view once its last consumer ran. `in` is the lane's
  /// reused input-pointer list, refilled per node. `guard` collects the
  /// runtime numerics scan when non-null.
  void run_lane(const MemoryPlan& plan, std::size_t base, int resume, const Tensor& seed,
                std::vector<Tensor>& acts, std::vector<const Tensor*>& in, bool train,
                VerifyReport* guard);

  Graph graph_;
  std::vector<Tensor> activations_;  // valid after a train-mode forward
  bool have_activations_ = false;

  std::vector<MemoryPlan> plans_;  // MRU cache, front = most recent
  tensor::Arena arena_;
  // One input-pointer list per lane, cleared and refilled for every node,
  // so the node loop allocates nothing once the lists have grown. Lanes run
  // concurrently, so they cannot share one.
  std::vector<std::vector<const Tensor*>> lane_inputs_;
};

}  // namespace netcut::nn
