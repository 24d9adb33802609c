#include "core/trn.hpp"

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

nn::Graph attach_head(nn::Graph g, const HeadConfig& head, util::Rng& rng) {
  const std::vector<tensor::Shape> shapes = g.infer_shapes();
  const tensor::Shape& feat = shapes[static_cast<std::size_t>(g.output_node())];
  if (feat.rank() != 3)
    throw std::invalid_argument("attach_head: trunk output must be CHW, got " +
                                feat.to_string());
  const int features = feat[0];

  int x = g.add(std::make_unique<nn::GlobalAvgPool>(), {g.output_node()}, "head/gap");
  auto fc1 = std::make_unique<nn::Dense>(features, head.hidden1);
  nn::xavier_init_dense(fc1->weight(), rng);
  x = g.add(std::move(fc1), {x}, "head/fc1");
  x = g.add(std::make_unique<nn::ReLU>(false), {x}, "head/relu1");
  auto fc2 = std::make_unique<nn::Dense>(head.hidden1, head.hidden2);
  nn::xavier_init_dense(fc2->weight(), rng);
  x = g.add(std::move(fc2), {x}, "head/fc2");
  x = g.add(std::make_unique<nn::ReLU>(false), {x}, "head/relu2");
  auto fc3 = std::make_unique<nn::Dense>(head.hidden2, head.classes);
  nn::xavier_init_dense(fc3->weight(), rng);
  x = g.add(std::move(fc3), {x}, "head/logits");
  if (head.with_softmax) g.add(std::make_unique<nn::Softmax>(), {x}, "head/softmax");
  nn::check_graph(g, "attach_head");
  return g;
}

nn::Graph build_trn(const nn::Graph& trunk, int cut_node, const HeadConfig& head,
                    util::Rng& rng) {
  // A cut that does not dominate the trunk output would sever an
  // Add/Concat operand inside a block; reject it before grafting.
  nn::check_cut_site(trunk, cut_node, "build_trn");
  return attach_head(trunk.prefix(cut_node), head, rng);
}

int layers_remaining(const nn::Graph& trunk, int cut_node) {
  return trunk.prefix(cut_node).layer_count();
}

int layers_removed(const nn::Graph& trunk, int cut_node) {
  return trunk.layer_count() - layers_remaining(trunk, cut_node);
}

int resume_node(const nn::Graph& trunk, int shallow_cut) {
  return trunk.prefix(shallow_cut).node_count() - 1;
}

std::string trn_name(const std::string& base_name, const nn::Graph& trunk, int cut_node) {
  return base_name + "/" + std::to_string(layers_remaining(trunk, cut_node));
}

}  // namespace netcut::core
