#include "nn/graph.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "nn/combine.hpp"

namespace netcut::nn {

Graph::Graph(const Graph& other) { copy_from(other); }

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) copy_from(other);
  return *this;
}

void Graph::copy_from(const Graph& other) {
  nodes_.clear();
  nodes_.reserve(other.nodes_.size());
  for (const Node& n : other.nodes_) {
    Node copy;
    copy.layer = n.layer->clone();
    copy.inputs = n.inputs;
    copy.name = n.name;
    copy.block_id = n.block_id;
    copy.block_name = n.block_name;
    nodes_.push_back(std::move(copy));
  }
  // The cache payload is immutable once published, so clones share it.
  shape_cache_ = other.shape_cache_;
}

int Graph::add_input(Shape shape) {
  if (!nodes_.empty()) throw std::logic_error("Graph::add_input: input must be the first node");
  Node n;
  n.layer = std::make_unique<Input>(std::move(shape));
  n.name = "input";
  nodes_.push_back(std::move(n));
  shape_cache_.reset();
  return 0;
}

int Graph::add(std::unique_ptr<Layer> layer, std::vector<int> inputs, std::string name,
               int block_id, std::string block_name) {
  if (nodes_.empty()) throw std::logic_error("Graph::add: call add_input first");
  if (!layer) throw std::invalid_argument("Graph::add: null layer");
  const int id = node_count();
  if (inputs.empty()) throw std::invalid_argument("Graph::add: node needs at least one input");
  for (int in : inputs)
    if (in < 0 || in >= id)
      throw std::invalid_argument("Graph::add: input id out of range (topological order)");
  Node n;
  n.name = name.empty() ? std::string(to_string(layer->kind())) : std::move(name);
  n.layer = std::move(layer);
  n.inputs = std::move(inputs);
  n.block_id = block_id;
  n.block_name = std::move(block_name);
  nodes_.push_back(std::move(n));
  shape_cache_.reset();
  return id;
}

const Node& Graph::node(int id) const {
  if (id < 0 || id >= node_count()) throw std::out_of_range("Graph::node: bad id");
  return nodes_[static_cast<std::size_t>(id)];
}

Node& Graph::node(int id) {
  if (id < 0 || id >= node_count()) throw std::out_of_range("Graph::node: bad id");
  return nodes_[static_cast<std::size_t>(id)];
}

const Shape& Graph::input_shape() const {
  if (nodes_.empty()) throw std::logic_error("Graph: empty");
  return static_cast<const Input&>(*nodes_[0].layer).declared_shape();
}

const std::vector<Shape>& Graph::infer_shapes() const {
  if (nodes_.empty()) throw std::logic_error("Graph: empty");
  if (shape_cache_) return *shape_cache_;
  std::vector<Shape> shapes(nodes_.size());
  shapes[0] = input_shape();
  for (int id = 1; id < node_count(); ++id) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    std::vector<Shape> in;
    in.reserve(n.inputs.size());
    for (int src : n.inputs) in.push_back(shapes[static_cast<std::size_t>(src)]);
    try {
      shapes[static_cast<std::size_t>(id)] = n.layer->output_shape(in);
    } catch (const std::exception& e) {
      throw std::invalid_argument("Graph: shape error at node " + std::to_string(id) + " (" +
                                  n.name + "): " + e.what());
    }
  }
  shape_cache_ = std::make_shared<const std::vector<Shape>>(std::move(shapes));
  return *shape_cache_;
}

std::vector<BlockInfo> Graph::blocks() const {
  std::vector<BlockInfo> out;
  for (int id = 1; id < node_count(); ++id) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.block_id < 0) continue;
    if (!out.empty() && out.back().block_id == n.block_id) {
      out.back().last_node = id;
      out.back().node_count += 1;
    } else {
      for (const BlockInfo& b : out)
        if (b.block_id == n.block_id)
          throw std::logic_error("Graph::blocks: block " + std::to_string(n.block_id) +
                                 " is not contiguous");
      BlockInfo b;
      b.block_id = n.block_id;
      b.name = n.block_name;
      b.first_node = id;
      b.last_node = id;
      b.node_count = 1;
      out.push_back(std::move(b));
    }
  }
  return out;
}

std::vector<int> Graph::output_dominators() const {
  // dom(v) as bitsets over node ids, packed 64 per word in one flat
  // n x words array (topological order makes a single pass sufficient).
  // The AND-reduce over a node's inputs runs word-at-a-time instead of
  // bit-at-a-time through std::vector<bool>'s proxy references.
  const int n = node_count();
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<std::uint64_t> dom(static_cast<std::size_t>(n) * words, 0);
  auto row = [&](int id) { return dom.data() + static_cast<std::size_t>(id) * words; };
  row(0)[0] = 1u;  // dom(input) = {input}
  for (int id = 1; id < n; ++id) {
    const Node& nd = nodes_[static_cast<std::size_t>(id)];
    std::uint64_t* d = row(id);
    std::memcpy(d, row(nd.inputs[0]), words * sizeof(std::uint64_t));
    for (std::size_t i = 1; i < nd.inputs.size(); ++i) {
      const std::uint64_t* other = row(nd.inputs[i]);
      for (std::size_t w = 0; w < words; ++w) d[w] &= other[w];
    }
    d[static_cast<std::size_t>(id) / 64] |= std::uint64_t{1} << (id % 64);
  }
  std::vector<int> result;
  const std::uint64_t* out_dom = row(n - 1);
  for (int id = 1; id < n; ++id)
    if (out_dom[static_cast<std::size_t>(id) / 64] >> (id % 64) & 1u) result.push_back(id);
  return result;
}

std::vector<bool> Graph::ancestors(int node_id) const {
  if (node_id <= 0 || node_id >= node_count())
    throw std::out_of_range("Graph::ancestors: bad node id");
  std::vector<bool> keep(static_cast<std::size_t>(node_count()), false);
  keep[static_cast<std::size_t>(node_id)] = true;
  for (int id = node_id; id >= 1; --id) {
    if (!keep[static_cast<std::size_t>(id)]) continue;
    for (int src : nodes_[static_cast<std::size_t>(id)].inputs)
      keep[static_cast<std::size_t>(src)] = true;
  }
  keep[0] = true;
  return keep;
}

Graph Graph::prefix(int node_id) const {
  const std::vector<bool> keep = ancestors(node_id);
  std::vector<int> remap(static_cast<std::size_t>(node_count()), -1);
  Graph out;
  out.add_input(input_shape());
  remap[0] = 0;
  for (int id = 1; id <= node_id; ++id) {
    if (!keep[static_cast<std::size_t>(id)]) continue;
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    std::vector<int> inputs;
    inputs.reserve(n.inputs.size());
    for (int src : n.inputs) {
      if (remap[static_cast<std::size_t>(src)] < 0)
        throw std::logic_error("Graph::prefix: dangling ancestor");
      inputs.push_back(remap[static_cast<std::size_t>(src)]);
    }
    remap[static_cast<std::size_t>(id)] =
        out.add(n.layer->clone(), std::move(inputs), n.name, n.block_id, n.block_name);
  }
  return out;
}

LayerCost Graph::total_cost() const {
  const std::vector<Shape>& shapes = infer_shapes();
  LayerCost total;
  for (int id = 1; id < node_count(); ++id) {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    std::vector<Shape> in;
    for (int src : n.inputs) in.push_back(shapes[static_cast<std::size_t>(src)]);
    const LayerCost c = n.layer->cost(in);
    total.flops += c.flops;
    total.params += c.params;
    total.input_elems += c.input_elems;
    total.output_elems += c.output_elems;
    total.kernel = std::max(total.kernel, c.kernel);
  }
  return total;
}

}  // namespace netcut::nn
