#include "core/trn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "nn/verify.hpp"

namespace netcut::core {

namespace {

/// The head's dense stack after node `x`, a vector of `features`: fc1/ReLU,
/// fc2/ReLU, logits, then a Softmax when head.with_softmax.
void append_dense_stack(nn::Graph& g, int x, int features, const HeadConfig& head) {
  x = g.add(std::make_unique<nn::Dense>(features, head.hidden1), {x}, "head/fc1");
  x = g.add(std::make_unique<nn::ReLU>(false), {x}, "head/relu1");
  x = g.add(std::make_unique<nn::Dense>(head.hidden1, head.hidden2), {x}, "head/fc2");
  x = g.add(std::make_unique<nn::ReLU>(false), {x}, "head/relu2");
  x = g.add(std::make_unique<nn::Dense>(head.hidden2, head.classes), {x}, "head/logits");
  if (head.with_softmax) g.add(std::make_unique<nn::Softmax>(), {x}, "head/softmax");
}

}  // namespace

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
  const int gap = g.add(std::make_unique<nn::GlobalAvgPool>(), {g.output_node()}, "head/gap");
  append_dense_stack(g, gap, feat[0], head);
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

double train_epochs(nn::Network& net, nn::Adam& opt, const std::vector<data::Sample>& train,
                    int epochs, util::Rng& rng) {
  const int n = static_cast<int>(train.size());
  double last = 0.0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    last = 0.0;
    for (int i : rng.permutation(n)) {
      const data::Sample& s = train[static_cast<std::size_t>(i)];
      net.zero_grads();
      const tensor::Tensor logits = net.forward(s.image, true);
      const nn::loss::LossResult lr = nn::loss::soft_cross_entropy(logits, s.label);
      net.backward(lr.grad);
      opt.step();
      last += lr.value;
    }
    last /= n;
  }
  return last;
}

TransferHead::TransferHead(const std::vector<tensor::Tensor>& train_x,
                           const std::vector<tensor::Tensor>& train_y, const HeadConfig& head,
                           int epochs, double learning_rate, std::uint64_t seed) {
  if (train_x.empty() || train_x.size() != train_y.size())
    throw std::invalid_argument("TransferHead: bad training set");
  const int features = static_cast<int>(train_x[0].numel());
  const auto n = static_cast<double>(train_x.size());
  mean_.assign(static_cast<std::size_t>(features), 0.0);
  stdev_.assign(static_cast<std::size_t>(features), 0.0);
  for (const tensor::Tensor& x : train_x)
    for (int k = 0; k < features; ++k) mean_[static_cast<std::size_t>(k)] += x[k];
  for (double& m : mean_) m /= n;
  for (const tensor::Tensor& x : train_x)
    for (int k = 0; k < features; ++k) {
      const double d = x[k] - mean_[static_cast<std::size_t>(k)];
      stdev_[static_cast<std::size_t>(k)] += d * d;
    }
  for (double& s : stdev_) {
    s = std::sqrt(s / n);
    if (s < 1e-8) s = 1.0;
  }

  util::Rng rng(seed);
  HeadConfig logits = head;
  logits.with_softmax = false;  // softmax is applied by predict()
  nn::Graph g;
  append_dense_stack(g, g.add_input(tensor::Shape::vec(features)), features, logits);
  init_head(g, rng);
  net_ = std::make_unique<nn::Network>(std::move(g));

  nn::Adam opt(learning_rate);
  opt.bind(net_->params(), net_->grads());
  std::vector<data::Sample> train;
  train.reserve(train_x.size());
  for (std::size_t i = 0; i < train_x.size(); ++i)
    train.push_back({standardize(train_x[i]), train_y[i], {}});
  train_epochs(*net_, opt, train, epochs, rng);
}

tensor::Tensor TransferHead::standardize(const tensor::Tensor& x) const {
  const int features = static_cast<int>(mean_.size());
  tensor::Tensor out(tensor::Shape::vec(features));
  for (int k = 0; k < features; ++k)
    out[k] = static_cast<float>((x[k] - mean_[static_cast<std::size_t>(k)]) /
                                stdev_[static_cast<std::size_t>(k)]);
  return out;
}

tensor::Tensor TransferHead::predict(const tensor::Tensor& x) const {
  return nn::softmax(net_->forward(standardize(x), false));
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
