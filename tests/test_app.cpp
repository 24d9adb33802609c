// Robotic-hand application layer: the transfer head its classifiers share,
// the classifiers, fusion, and the control loop.
#include <gtest/gtest.h>

#include "app/classifier.hpp"
#include "app/control_loop.hpp"
#include "app/fusion.hpp"
#include "ml/metrics.hpp"

namespace netcut::app {
namespace {

data::HandsConfig tiny_data() {
  data::HandsConfig c;
  c.resolution = 24;
  c.train_count = 60;
  c.test_count = 30;
  return c;
}

MlpConfig quick_mlp() {
  MlpConfig c;
  c.epochs = 15;
  return c;
}

data::PretrainedConfig tiny_pretrain() {
  data::PretrainedConfig c;
  c.source_images = 80;
  c.epochs = 6;
  return c;
}

TEST(TransferHead, LearnsSeparableFeatures) {
  // Features: class-indexed bumps; must reach high angular similarity.
  util::Rng rng(1);
  std::vector<tensor::Tensor> x, y;
  for (int i = 0; i < 100; ++i) {
    const int cls = i % 5;
    tensor::Tensor f(tensor::Shape::vec(10));
    for (int k = 0; k < 10; ++k) f[k] = static_cast<float>(rng.normal(0.0, 0.3));
    f[cls * 2] += 2.0f;
    x.push_back(std::move(f));
    y.push_back(data::make_label(static_cast<data::GraspType>(cls), rng, 0.02));
  }
  const MlpConfig c = quick_mlp();
  const core::TransferHead clf(x, y, kMlpHead, c.epochs, kMlpLearningRate, c.seed);
  std::vector<tensor::Tensor> preds, labels;
  for (int i = 0; i < 100; ++i) {
    preds.push_back(clf.predict(x[static_cast<std::size_t>(i)]));
    labels.push_back(y[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(ml::mean_angular_similarity(preds, labels), 0.8);
  EXPECT_GT(ml::top1_agreement(preds, labels), 0.9);
}

TEST(TransferHead, RejectsBadTrainingSet) {
  // Trained by its constructor, a head cannot exist unfitted.
  const std::vector<tensor::Tensor> one(1, tensor::Tensor(tensor::Shape::vec(4)));
  EXPECT_THROW(core::TransferHead({}, {}, core::HeadConfig{}, 1, 1e-3, 7), std::invalid_argument);
  EXPECT_THROW(core::TransferHead(one, {}, core::HeadConfig{}, 1, 1e-3, 7), std::invalid_argument);
}

TEST(EmgClassifier, BeatsChanceOnHeldOutData) {
  data::EmgGenerator gen;
  EmgClassifier clf(gen, 150, quick_mlp());
  const double acc = clf.test_accuracy(gen, 100, 777);
  EXPECT_GT(acc, 0.55);  // well above the ~0.35 of a uniform predictor
}

TEST(Fusion, ProductOfExpertsSharpens) {
  tensor::Tensor a(tensor::Shape::vec(2));
  a[0] = 0.7f; a[1] = 0.3f;
  const tensor::Tensor fused = fuse({a, a}, {1.0, 1.0});
  EXPECT_GT(fused[0], 0.8f);  // agreement sharpens the decision
  EXPECT_NEAR(fused.sum(), 1.0f, 1e-5f);
}

TEST(Fusion, WeightsModulateInfluence) {
  tensor::Tensor confident(tensor::Shape::vec(2));
  confident[0] = 0.9f; confident[1] = 0.1f;
  tensor::Tensor opposite(tensor::Shape::vec(2));
  opposite[0] = 0.1f; opposite[1] = 0.9f;
  // Heavily down-weighted opposite opinion barely moves the result.
  const tensor::Tensor fused = fuse({confident, opposite}, {1.0, 0.1});
  EXPECT_GT(fused[0], 0.5f);
}

TEST(Fusion, AccumulatorUniformBeforeObservations) {
  EvidenceAccumulator acc(5);
  const tensor::Tensor d = acc.decision();
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(d[i], 0.2f, 1e-6f);
  tensor::Tensor p(tensor::Shape::vec(5));
  p[2] = 1.0f;
  acc.observe(p);
  EXPECT_GT(acc.decision()[2], 0.9f);
  acc.reset();
  EXPECT_EQ(acc.observations(), 0);
  EXPECT_NEAR(acc.decision()[0], 0.2f, 1e-6f);
}

TEST(ControlLoop, FusedDecisionsBeatDeadlineMissRegime) {
  const data::HandsDataset dataset(tiny_data());
  data::EmgGenerator emg_gen;
  EmgClassifier emg(emg_gen, 150, quick_mlp());

  const zoo::NetId base = zoo::NetId::kMobileNetV1_025;
  nn::Graph trunk = zoo::build_trunk(base, 24);
  VisualClassifier vision(base, trunk.output_node(), dataset, quick_mlp(),
                          tiny_pretrain());

  ControlLoopConfig cfg;
  cfg.episodes = 20;

  // In-deadline classifier: frames flow.
  ControlLoop good({{"", /*latency_ms=*/0.3, &vision, {}}}, emg, emg_gen, cfg);
  const ControlLoopReport ok = good.run(dataset);
  EXPECT_LT(ok.deadline_miss_rate, 0.01);
  EXPECT_GT(ok.mean_frames_used, 10.0);
  EXPECT_GT(ok.top1_accuracy, 0.45);
  EXPECT_GT(ok.mean_angular_similarity, 0.5);

  // Over-deadline classifier: every frame is dropped; fusion degrades to
  // EMG-only but must still function.
  ControlLoop bad({{"", /*latency_ms=*/2.0, &vision, {}}}, emg, emg_gen, cfg);
  const ControlLoopReport degraded = bad.run(dataset);
  EXPECT_GT(degraded.deadline_miss_rate, 0.99);
  EXPECT_LE(degraded.top1_accuracy, ok.top1_accuracy + 0.15);
}

TEST(VisualClassifier, TrimmedTrunkStillClassifies) {
  const data::HandsDataset dataset(tiny_data());
  const zoo::NetId base = zoo::NetId::kMobileNetV1_050;
  nn::Graph trunk = zoo::build_trunk(base, 24);
  const auto cuts = core::blockwise_cutpoints(trunk);
  VisualClassifier trimmed(base, cuts[static_cast<std::size_t>(cuts.size() / 2)], dataset,
                           quick_mlp(), tiny_pretrain());
  const double acc = trimmed.test_accuracy(dataset);
  EXPECT_GT(acc, 0.33);
  const tensor::Tensor p = trimmed.predict(dataset.test()[0].image);
  EXPECT_NEAR(p.sum(), 1.0f, 1e-5f);
}

}  // namespace
}  // namespace netcut::app
