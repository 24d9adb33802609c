#include "core/trn.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/pooling.hpp"
#include "nn/verify.hpp"

namespace netcut::core {

std::vector<int> blockwise_cutpoints(const nn::Graph& trunk) {
  std::vector<int> out;
  for (const nn::BlockInfo& b : trunk.blocks()) out.push_back(b.last_node);
  if (out.empty()) throw std::invalid_argument("blockwise_cutpoints: trunk has no blocks");
  return out;
}

std::vector<int> iterative_cutpoints(const nn::Graph& trunk) {
  return trunk.output_dominators();
}

nn::Graph append_head(nn::Graph g, const HeadConfig& head) {
  const std::vector<tensor::Shape> shapes = g.infer_shapes();
  const tensor::Shape& feat = shapes[static_cast<std::size_t>(g.output_node())];
  if (feat.rank() != 3)
    throw std::invalid_argument("append_head: trunk output must be CHW, got " +
                                feat.to_string());
  const int features = feat[0];

  int x = g.add(std::make_unique<nn::GlobalAvgPool>(), {g.output_node()}, "head/gap");
  x = g.add(std::make_unique<nn::Dense>(features, head.hidden1), {x}, "head/fc1");
  x = g.add(std::make_unique<nn::ReLU>(false), {x}, "head/relu1");
  x = g.add(std::make_unique<nn::Dense>(head.hidden1, head.hidden2), {x}, "head/fc2");
  x = g.add(std::make_unique<nn::ReLU>(false), {x}, "head/relu2");
  x = g.add(std::make_unique<nn::Dense>(head.hidden2, head.classes), {x}, "head/logits");
  if (head.with_softmax) g.add(std::make_unique<nn::Softmax>(), {x}, "head/softmax");
  nn::check_graph(g, "append_head");
  return g;
}

void init_head(nn::Graph& trn, util::Rng& rng) {
  for (int id = 1; id < trn.node_count(); ++id) {
    nn::Node& nd = trn.node(id);
    if (nd.layer->kind() == nn::LayerKind::kDense && nd.name.rfind("head/", 0) == 0)
      nn::xavier_init_dense(static_cast<nn::Dense&>(*nd.layer).weight(), rng);
  }
}

nn::Graph build_trn(const nn::Graph& trunk, int cut_node, const HeadConfig& head,
                    util::Rng& rng) {
  // A cut that does not dominate the trunk output would sever an
  // Add/Concat operand inside a block; reject it before grafting.
  nn::check_cut_site(trunk, cut_node, "build_trn");
  nn::Graph trn = append_head(trunk.prefix(cut_node), head);
  init_head(trn, rng);
  return trn;
}

int layers_remaining(const nn::Graph& trunk, int cut_node) {
  const std::vector<bool> kept = trunk.ancestors(cut_node);
  return static_cast<int>(std::count(kept.begin(), kept.end(), true)) - 1;  // minus the input
}

int layers_removed(const nn::Graph& trunk, int cut_node) {
  return trunk.layer_count() - layers_remaining(trunk, cut_node);
}

int resume_node(const nn::Graph& trunk, int shallow_cut) {
  return layers_remaining(trunk, shallow_cut);
}

std::string trn_name(const std::string& base_name, const nn::Graph& trunk, int cut_node) {
  return base_name + "/" + std::to_string(layers_remaining(trunk, cut_node));
}

}  // namespace netcut::core
