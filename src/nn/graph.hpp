// A DAG of layers. Nodes are appended in topological order (a node's inputs
// must already exist), so insertion order doubles as execution order.
//
// Every node carries a block id: the repeating architectural module
// (depthwise-separable block, inverted residual, Inception module, residual
// bottleneck, dense layer, ...) it belongs to. Block boundaries are the cut
// sites for blockwise layer removal; graph dominators of the output are the
// cut sites for iterative (per-layer) removal.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.hpp"

namespace netcut::nn {

struct Node {
  std::unique_ptr<Layer> layer;
  std::vector<int> inputs;  // node ids, all < this node's id
  std::string name;
  int block_id = -1;            // -1: not part of a removable block (stem/head)
  std::string block_name;
};

struct BlockInfo {
  int block_id = -1;
  std::string name;
  int first_node = -1;
  int last_node = -1;  // the block's single output node (cut site)
  int node_count = 0;
};

class Graph {
 public:
  Graph() = default;
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Creates the (single) input node. Must be called first, exactly once.
  int add_input(Shape shape);

  /// Appends a node; inputs must reference existing node ids.
  /// Returns the new node's id. The most recently added node is the output.
  int add(std::unique_ptr<Layer> layer, std::vector<int> inputs, std::string name = "",
          int block_id = -1, std::string block_name = "");

  int node_count() const { return static_cast<int>(nodes_.size()); }
  const Node& node(int id) const;
  Node& node(int id);
  int input_node() const { return 0; }
  int output_node() const { return node_count() - 1; }

  const Shape& input_shape() const;

  /// Shape of every node's output, in node order. Validates the graph.
  /// The result is computed once and cached; add()/add_input() and
  /// assignment invalidate the cache, so repeated callers (network
  /// construction, plan building, TRN cutting, device costing, pretrained
  /// harvesting) pay the per-layer shape walk only once per graph.
  /// Structural mutation through the non-const node() accessor is NOT
  /// tracked — such callers must invalidate_shape_cache() themselves, and
  /// nn::verify_graph cross-checks cache coherency either way. The lazy
  /// fill is not thread-safe; concurrent executors operate on per-worker
  /// Graph clones (each clone re-derives its own cache).
  const std::vector<Shape>& infer_shapes() const;

  /// Drop the cached shape vector (next infer_shapes() recomputes).
  void invalidate_shape_cache() { shape_cache_.reset(); }

  /// The cached shape vector, or nullptr when no infer_shapes() call has
  /// populated it since the last mutation. Used by nn::verify_graph to
  /// cross-check cache coherency against an independent re-derivation.
  const std::vector<Shape>* cached_shapes() const { return shape_cache_.get(); }

  /// Blocks in topological order of their last node. Only nodes with
  /// block_id >= 0 participate. Requires each block to be contiguous and to
  /// end at a node that dominates the output (a valid cut site).
  std::vector<BlockInfo> blocks() const;

  /// Node ids that every input->output path passes through, in topological
  /// order, excluding the input node itself. These are the legal single-
  /// tensor cut sites for iterative layer removal.
  std::vector<int> output_dominators() const;

  /// Which nodes are ancestors of `node_id` (inclusive; the input node
  /// always is), indexed by node id. Reads only the edges.
  std::vector<bool> ancestors(int node_id) const;

  /// The subgraph consisting of all ancestors of `node_id` (inclusive),
  /// with `node_id` as the new output, in id order. Layer weights are
  /// deep-copied.
  Graph prefix(int node_id) const;

  /// Sum of per-layer costs (at the graph's own input resolution).
  LayerCost total_cost() const;

  /// Number of layers (nodes excluding the input placeholder).
  int layer_count() const { return node_count() - 1; }

 private:
  void copy_from(const Graph& other);
  std::vector<Node> nodes_;
  // Cached infer_shapes() result. Shared (immutable payload) so copying a
  // graph shares the already-computed shapes instead of re-deriving them.
  mutable std::shared_ptr<const std::vector<Shape>> shape_cache_;
};

}  // namespace netcut::nn
