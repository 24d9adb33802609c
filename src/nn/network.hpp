// Network: an executable wrapper around a Graph. Owns per-node activation
// storage for forward passes and gradient accumulators for backward passes.
//
// Every forward pass runs through one executor: a MemoryPlan assigns every
// activation and per-layer scratch buffer an offset into one arena, and
// layers write into views bound at those offsets, so a steady-state pass
// performs no per-node heap allocation. The executor is node-major over a
// batch of lanes, one lane (a disjoint arena region) per image: each node
// runs once for the whole batch. A single image calls the layer's
// forward_into; a batch calls Layer::forward_lanes, where a Conv2D runs one
// GEMM over the images' columns (images with wide output planes in smaller
// groups) and the other layers run their lanes in parallel (a BatchNorm
// collecting statistics runs them in image order).
// Batched passes are inference-only and bitwise equal to single-image
// passes. Tensors handed back to the caller (the output, collected
// activations) are deep-copied out of the arena by Tensor's materializing
// copy semantics.
#pragma once

#include <cstdint>
#include <span>
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

  /// Inference-only batched forward_collect: per input, in order, the
  /// activations of `collect` (the output alone when `collect` is empty).
  /// All inputs must share one shape. Bitwise identical to inputs.size()
  /// single-image forward_collect calls, also while BatchNorms collect
  /// statistics (data::calibrate_batchnorm).
  std::vector<std::vector<Tensor>> forward_collect(const std::vector<const Tensor*>& inputs,
                                                   const std::vector<int>& collect);

  /// Inference-only batched forward: one output per input, in order. The
  /// arena is laid out as one disjoint lane per image (planned once per
  /// batch size and cached), and every kernel is deterministic at any
  /// thread count, so the result is bitwise identical to `inputs.size()`
  /// independent single-image forwards — the serving layer relies on
  /// exactly that equivalence. All inputs must share one shape. Same as
  /// forward_from_batch(0, inputs).
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

  /// Most images one planned batch runs. Measured on the explore harvest
  /// (24 px trunks, pool of 3): beyond 16 lanes the GEMMs gain little and
  /// the arena keeps growing.
  static constexpr std::size_t kMaxLanes = 16;
  /// Lanes per batch for a list of `images`: the fewest batches of at most
  /// kMaxLanes, sized evenly (40 images run as 14 + 13 + 13, not 16 + 16 +
  /// 8). The batched entry points split their inputs this way.
  static std::size_t lanes_for(std::size_t images);

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
  /// Inference over `seeds` in batches of lanes_for(seeds.size()): per
  /// seed, the activations of `collect` (the output alone when it is empty).
  std::vector<std::vector<Tensor>> run_batched(int resume, const std::vector<const Tensor*>& seeds,
                                               const std::vector<int>& collect, const char* who);
  /// The one node loop. Seeds lane b's node plan.resume() with a view of
  /// seeds[b] (each must have that node's inferred shape, else
  /// std::invalid_argument), then runs every later node once for all lanes
  /// into its planned slots; acts_[b] receives lane b's views, and
  /// inference drops a view once its last consumer ran. With one lane the
  /// layer's forward_into runs (train allowed); with more, forward_lanes.
  /// The runtime numerics guard, when on, scans every output and reports
  /// lane by lane under `who`.
  void execute(const MemoryPlan& plan, std::span<const Tensor* const> seeds, bool train,
               const char* who);

  Graph graph_;
  bool have_activations_ = false;  // a train-mode forward ran; backward may follow

  std::vector<MemoryPlan> plans_;  // MRU cache, front = most recent
  tensor::Arena arena_;
  // Per-lane node activations and layer operands, kept across passes so
  // the node loop allocates nothing once they have grown.
  std::vector<std::vector<Tensor>> acts_;
  std::vector<LaneIO> lanes_;
};

}  // namespace netcut::nn
