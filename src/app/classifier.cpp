#include "app/classifier.hpp"

#include <algorithm>

#include "core/pretrained_cache.hpp"
#include "data/pretrained.hpp"
#include "ml/metrics.hpp"
#include "nn/pooling.hpp"

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

/// The kMlpHead transfer head, trained for config.epochs on (x, y) from the seed
/// derived for `key`.
core::TransferHead fit_head(const std::vector<tensor::Tensor>& x,
                            const std::vector<tensor::Tensor>& y, const MlpConfig& config,
                            const char* key) {
  return core::TransferHead(x, y, kMlpHead, config.epochs, kMlpLearningRate,
                            util::derive_seed(config.seed, key));
}

core::TransferHead fit_emg_head(const data::EmgGenerator& generator, int train_samples,
                                const MlpConfig& config) {
  std::vector<tensor::Tensor> x, y;
  for (data::Sample& s : generator.dataset(train_samples, config.seed)) {
    x.push_back(std::move(s.image));
    y.push_back(std::move(s.label));
  }
  return fit_head(x, y, config, "emg-classifier/head");
}

}  // namespace

EmgClassifier::EmgClassifier(const data::EmgGenerator& generator, int train_samples,
                             MlpConfig config)
    : head_(fit_emg_head(generator, train_samples, config)) {
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
    pred.push_back(head_.predict(s.image));
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

  std::vector<tensor::Tensor> x, y;
  for (const data::Sample& s : dataset.train()) {
    x.push_back(features(s.image));
    y.push_back(s.label);
  }
  head_ = std::make_unique<core::TransferHead>(
      fit_head(x, y, head_config, "visual-classifier/head"));

  const data::HandsConfig& dc = dataset.config();
  reliability_ = measure_reliability(
      util::derive_seed(head_config.seed, "visual-classifier/reliability"),
      [&](data::GraspType intent, util::Rng& rng) {
        return data::render_object(intent, dc.resolution, rng, data::kBackgroundNoise);
      },
      [&](const tensor::Tensor& image) { return predict(image); });
}

tensor::Tensor VisualClassifier::features(const tensor::Tensor& image) const {
  const tensor::Tensor act = trunk_->forward(image, false);
  return nn::GlobalAvgPool().forward({&act}, false);
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
