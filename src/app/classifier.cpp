#include "app/classifier.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/pretrained_cache.hpp"
#include "core/trn.hpp"
#include "data/pretrained.hpp"
#include "ml/metrics.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace netcut::app {

namespace {

constexpr int kReliabilityDrawsPerClass = 20;

/// Chance-corrected top-1 of `predict` over class-balanced held-out inputs
/// `draw(intent, rng)`: max(0, (top1 - 1/K) / (1 - 1/K)).
template <class Draw, class Predict>
double measure_reliability(std::uint64_t seed, Draw draw, Predict predict) {
  util::Rng rng(seed);
  const int draws = kReliabilityDrawsPerClass * data::kGraspCount;
  int correct = 0;
  for (int i = 0; i < draws; ++i) {
    const int intent = i % data::kGraspCount;
    const tensor::Tensor p = predict(draw(static_cast<data::GraspType>(intent), rng));
    int top1 = 0;
    for (int c = 1; c < data::kGraspCount; ++c)
      if (p[c] > p[top1]) top1 = c;
    if (top1 == intent) ++correct;
  }
  const double chance = 1.0 / data::kGraspCount;
  return std::max(0.0, (static_cast<double>(correct) / draws - chance) / (1.0 - chance));
}

}  // namespace

SoftClassifier::SoftClassifier(int features, MlpConfig config)
    : features_(features), config_(config) {
  if (features <= 0) throw std::invalid_argument("SoftClassifier: bad feature count");
  util::Rng rng(util::derive_seed(config_.seed, "soft-classifier"));
  nn::Graph g;
  int x = g.add_input(tensor::Shape::vec(features));
  auto fc1 = std::make_unique<nn::Dense>(features, config_.hidden1);
  nn::xavier_init_dense(fc1->weight(), rng);
  x = g.add(std::move(fc1), {x}, "fc1");
  x = g.add(std::make_unique<nn::ReLU>(false), {x}, "relu1");
  auto fc2 = std::make_unique<nn::Dense>(config_.hidden1, config_.hidden2);
  nn::xavier_init_dense(fc2->weight(), rng);
  x = g.add(std::move(fc2), {x}, "fc2");
  x = g.add(std::make_unique<nn::ReLU>(false), {x}, "relu2");
  auto fc3 = std::make_unique<nn::Dense>(config_.hidden2, config_.classes);
  nn::xavier_init_dense(fc3->weight(), rng);
  g.add(std::move(fc3), {x}, "logits");
  net_ = std::make_unique<nn::Network>(std::move(g));
}

tensor::Tensor SoftClassifier::standardize(const tensor::Tensor& x) const {
  tensor::Tensor out(tensor::Shape::vec(features_));
  for (int k = 0; k < features_; ++k)
    out[k] = (x[k] - mean_[static_cast<std::size_t>(k)]) / stdev_[static_cast<std::size_t>(k)];
  return out;
}

void SoftClassifier::fit(const std::vector<tensor::Tensor>& x,
                         const std::vector<tensor::Tensor>& y) {
  if (x.empty() || x.size() != y.size()) throw std::invalid_argument("SoftClassifier::fit");
  mean_.assign(static_cast<std::size_t>(features_), 0.0f);
  stdev_.assign(static_cast<std::size_t>(features_), 0.0f);
  for (const tensor::Tensor& t : x)
    for (int k = 0; k < features_; ++k) mean_[static_cast<std::size_t>(k)] += t[k];
  for (int k = 0; k < features_; ++k)
    mean_[static_cast<std::size_t>(k)] /= static_cast<float>(x.size());
  for (const tensor::Tensor& t : x)
    for (int k = 0; k < features_; ++k) {
      const float d = t[k] - mean_[static_cast<std::size_t>(k)];
      stdev_[static_cast<std::size_t>(k)] += d * d;
    }
  for (int k = 0; k < features_; ++k) {
    auto& s = stdev_[static_cast<std::size_t>(k)];
    s = std::sqrt(s / static_cast<float>(x.size()));
    if (s < 1e-6f) s = 1.0f;
  }

  nn::Adam opt(config_.learning_rate);
  opt.bind(net_->params(), net_->grads());
  util::Rng rng(util::derive_seed(config_.seed, "soft-classifier/train"));
  const int n = static_cast<int>(x.size());
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (int i : rng.permutation(n)) {
      net_->zero_grads();
      const tensor::Tensor logits =
          net_->forward(standardize(x[static_cast<std::size_t>(i)]), true);
      const nn::loss::LossResult lr =
          nn::loss::soft_cross_entropy(logits, y[static_cast<std::size_t>(i)]);
      net_->backward(lr.grad);
      opt.step();
    }
  }
  trained_ = true;
}

tensor::Tensor SoftClassifier::predict(const tensor::Tensor& x) const {
  if (!trained_) throw std::logic_error("SoftClassifier::predict before fit");
  return nn::softmax(net_->forward(standardize(x), false));
}

EmgClassifier::EmgClassifier(const data::EmgGenerator& generator, int train_samples,
                             MlpConfig config)
    : mlp_(data::kEmgChannels, config) {
  const std::vector<data::Sample> ds = generator.dataset(train_samples, config.seed);
  std::vector<tensor::Tensor> x, y;
  for (const data::Sample& s : ds) {
    x.push_back(s.image);
    y.push_back(s.label);
  }
  mlp_.fit(x, y);
  reliability_ = measure_reliability(
      util::derive_seed(config.seed, "emg-classifier/reliability"),
      [&](data::GraspType intent, util::Rng& rng) { return generator.sample(intent, rng); },
      [&](const tensor::Tensor& f) { return predict(f); });
}

double EmgClassifier::test_accuracy(const data::EmgGenerator& generator, int samples,
                                    std::uint64_t seed) const {
  const std::vector<data::Sample> ds = generator.dataset(samples, seed);
  std::vector<tensor::Tensor> pred, label;
  for (const data::Sample& s : ds) {
    pred.push_back(mlp_.predict(s.image));
    label.push_back(s.label);
  }
  return ml::mean_angular_similarity(pred, label);
}

VisualClassifier::VisualClassifier(zoo::NetId base, int cut_node,
                                   const data::HandsDataset& dataset, MlpConfig head_config,
                                   const data::PretrainedConfig& pretrained,
                                   const std::string& weight_cache_dir)
    : base_(base), cut_node_(cut_node) {
  const nn::Graph trunk = core::pretrained_trunk(base, dataset.config().resolution,
                                                 pretrained, weight_cache_dir);
  trunk_ = std::make_unique<nn::Network>(trunk.prefix(cut_node));
  const auto calib = dataset.calibration_set(0.03, head_config.seed);
  std::vector<const tensor::Tensor*> images;
  for (const data::Sample* s : calib) images.push_back(&s->image);
  data::calibrate_batchnorm(*trunk_, images);

  const tensor::Shape out = trunk_->output_shape();
  head_ = std::make_unique<SoftClassifier>(out[0], head_config);

  std::vector<tensor::Tensor> x, y;
  for (const data::Sample& s : dataset.train()) {
    x.push_back(features(s.image));
    y.push_back(s.label);
  }
  head_->fit(x, y);

  const data::HandsConfig& dc = dataset.config();
  reliability_ = measure_reliability(
      util::derive_seed(head_config.seed, "visual-classifier/reliability"),
      [&](data::GraspType intent, util::Rng& rng) {
        return data::render_object(intent, dc.resolution, rng, dc.background_noise);
      },
      [&](const tensor::Tensor& image) { return predict(image); });
}

tensor::Tensor VisualClassifier::features(const tensor::Tensor& image) const {
  const tensor::Tensor act = trunk_->forward(image, false);
  const int C = act.shape()[0];
  const int hw = act.shape()[1] * act.shape()[2];
  tensor::Tensor f(tensor::Shape::vec(C));
  for (int c = 0; c < C; ++c) {
    const float* chan = act.data() + static_cast<std::int64_t>(c) * hw;
    double s = 0.0;
    for (int i = 0; i < hw; ++i) s += chan[i];
    f[c] = static_cast<float>(s / hw);
  }
  return f;
}

tensor::Tensor VisualClassifier::predict(const tensor::Tensor& image) const {
  return head_->predict(features(image));
}

double VisualClassifier::test_accuracy(const data::HandsDataset& dataset) const {
  std::vector<tensor::Tensor> pred, label;
  for (const data::Sample& s : dataset.test()) {
    pred.push_back(predict(s.image));
    label.push_back(s.label);
  }
  return ml::mean_angular_similarity(pred, label);
}

}  // namespace netcut::app
