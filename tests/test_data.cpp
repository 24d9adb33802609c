// Synthetic dataset, pseudo-pretrained weight generation, and EMG stream.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/emg.hpp"
#include "data/hands.hpp"
#include "data/pretrained.hpp"
#include "zoo/zoo.hpp"

namespace netcut::data {
namespace {

HandsConfig small_config() {
  HandsConfig c;
  c.resolution = 24;
  c.train_count = 50;
  c.test_count = 20;
  return c;
}

TEST(HandsDataset, SplitSizesAndShapes) {
  const HandsDataset ds(small_config());
  EXPECT_EQ(ds.train().size(), 50u);
  EXPECT_EQ(ds.test().size(), 20u);
  for (const Sample& s : ds.train()) {
    EXPECT_EQ(s.image.shape(), tensor::Shape::chw(3, 24, 24));
    EXPECT_EQ(s.label.shape(), tensor::Shape::vec(5));
  }
}

TEST(HandsDataset, LabelsAreDistributionsWithCorrectMode) {
  const HandsDataset ds(small_config());
  for (const Sample& s : ds.train()) {
    float sum = 0.0f;
    int argmax = 0;
    for (int i = 0; i < kGraspCount; ++i) {
      EXPECT_GT(s.label[i], 0.0f);
      sum += s.label[i];
      if (s.label[i] > s.label[argmax]) argmax = i;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
    EXPECT_EQ(argmax, static_cast<int>(s.primary));
    EXPECT_LT(s.label[argmax], 0.95f);  // probabilistic, not one-hot
  }
}

TEST(HandsDataset, PixelsInUnitRange) {
  const HandsDataset ds(small_config());
  for (const Sample& s : ds.test()) {
    EXPECT_GE(s.image.min(), 0.0f);
    EXPECT_LE(s.image.max(), 1.0f);
  }
}

TEST(HandsDataset, ClassesAreBalanced) {
  const HandsDataset ds(small_config());
  std::vector<int> counts(kGraspCount, 0);
  for (const Sample& s : ds.train()) ++counts[static_cast<std::size_t>(static_cast<int>(s.primary))];
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(HandsDataset, DeterministicForSeed) {
  const HandsDataset a(small_config()), b(small_config());
  EXPECT_LT(tensor::max_abs_diff(a.train()[7].image, b.train()[7].image), 1e-9f);
  HandsConfig other = small_config();
  other.seed = 43;
  const HandsDataset c(other);
  EXPECT_GT(tensor::max_abs_diff(a.train()[7].image, c.train()[7].image), 1e-4f);
}

TEST(HandsDataset, ObjectsDifferAcrossClasses) {
  // Mean absolute inter-class image difference should exceed intra-class
  // difference: the renderer must encode the category.
  const HandsDataset ds(small_config());
  const Sample& sphere1 = ds.train()[2];   // class i%5: index 2 -> PowerSphere
  const Sample& sphere2 = ds.train()[7];
  const Sample& plate = ds.train()[0];     // OpenPalm
  ASSERT_EQ(sphere1.primary, GraspType::kPowerSphere);
  ASSERT_EQ(plate.primary, GraspType::kOpenPalm);
  // Not a strict invariant per pair, but with the default silhouettes the
  // sphere/plate silhouette mass differs a lot.
  double intra = 0.0, inter = 0.0;
  for (std::int64_t i = 0; i < sphere1.image.numel(); ++i) {
    intra += std::abs(sphere1.image[i] - sphere2.image[i]);
    inter += std::abs(sphere1.image[i] - plate.image[i]);
  }
  EXPECT_GT(inter, intra * 0.5);
}

TEST(HandsDataset, CalibrationSetFractionAndMembership) {
  const HandsDataset ds(small_config());
  const auto calib = ds.calibration_set(0.1, 5);
  EXPECT_EQ(calib.size(), 5u);
  std::set<const Sample*> unique(calib.begin(), calib.end());
  EXPECT_EQ(unique.size(), calib.size());
  EXPECT_THROW(ds.calibration_set(0.0, 5), std::invalid_argument);
}

PretrainedConfig tiny_pretrain() {
  PretrainedConfig cfg;
  cfg.source_images = 60;
  cfg.epochs = 4;
  return cfg;
}

TEST(Pretrained, TrainingReducesSourceLoss) {
  nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  PretrainedConfig cfg = tiny_pretrain();
  cfg.epochs = 6;
  const PretrainReport r = generate_pretrained_weights(trunk, cfg);
  // Chance-level CE for 10 classes is ln(10) = 2.30 per head (two heads).
  EXPECT_LT(r.final_loss, 2.0 * 2.30);
  EXPECT_GT(r.source_accuracy, 0.15);  // above the 0.10 chance level
  EXPECT_EQ(r.steps, cfg.epochs * (cfg.source_images / kPretrainBatchSize));
}

TEST(Pretrained, RejectsASourceSetThatLeavesAPartialBatch) {
  // Every optimizer step takes a full batch: 42 images would leave two whose
  // gradients no step applies.
  nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  PretrainedConfig cfg = tiny_pretrain();
  cfg.source_images = 42;
  EXPECT_THROW(generate_pretrained_weights(trunk, cfg), std::invalid_argument);
}

TEST(Pretrained, GeneratorIsDeterministic) {
  nn::Graph a = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  nn::Graph b = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  const PretrainedConfig cfg = tiny_pretrain();
  generate_pretrained_weights(a, cfg);
  generate_pretrained_weights(b, cfg);
  for (int id = 1; id < a.node_count(); ++id) {
    auto pa = a.node(id).layer->params();
    auto pb = b.node(id).layer->params();
    for (std::size_t k = 0; k < pa.size(); ++k)
      ASSERT_LT(tensor::max_abs_diff(*pa[k], *pb[k]), 1e-9f);
  }
}

TEST(Pretrained, SourceObjectsCoverAllCategories) {
  util::Rng rng(5);
  for (int cat = 0; cat < kSourceClasses; ++cat) {
    const tensor::Tensor img = render_source_object(cat, 24, rng, 0.05);
    EXPECT_EQ(img.shape(), tensor::Shape::chw(3, 24, 24));
    EXPECT_GE(img.min(), 0.0f);
    EXPECT_LE(img.max(), 1.0f);
  }
  EXPECT_THROW(render_source_object(kSourceClasses, 24, rng, 0.05), std::invalid_argument);
}

TEST(Pretrained, ActivationsStayFiniteAfterCalibration) {
  const HandsDataset ds(small_config());
  nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV2_100, 24);
  generate_pretrained_weights(trunk, tiny_pretrain());
  nn::Network net(std::move(trunk));

  std::vector<const tensor::Tensor*> images;
  for (int i = 0; i < 8; ++i) images.push_back(&ds.train()[static_cast<std::size_t>(i)].image);
  calibrate_batchnorm(net, images);

  const tensor::Tensor y = net.forward(ds.test()[0].image);
  for (std::int64_t i = 0; i < y.numel(); ++i) ASSERT_TRUE(std::isfinite(y[i]));
  // Calibration should keep deep activations in a sane dynamic range.
  EXPECT_LT(std::abs(y.mean()), 50.0f);
}

TEST(Pretrained, FeaturesCarryClassInformation) {
  // Fisher criterion (between-class / within-class variance) of GAP features
  // read at a mid-trunk cut site must show a clear class signal — otherwise
  // the transfer experiments are vacuous. The probe sits at ~30% of the
  // block sequence: that is the depth range TRN retraining consumes, and it
  // lies below the specialization onset — features at the trunk's own output
  // are deliberately source-task-specific and carry no target signal.
  HandsConfig hc = small_config();
  hc.train_count = 100;
  const HandsDataset ds(hc);
  nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV1_050, 24);
  const auto blocks = trunk.blocks();
  const int nb = static_cast<int>(blocks.size());
  int bi = static_cast<int>(0.3 * nb) - 1;
  if (bi < 0) bi = 0;
  const int probe = blocks[static_cast<std::size_t>(bi)].last_node;

  PretrainedConfig cfg = tiny_pretrain();
  cfg.epochs = 8;
  cfg.source_images = 100;
  generate_pretrained_weights(trunk, cfg);
  nn::Network net(std::move(trunk));
  std::vector<const tensor::Tensor*> images;
  for (int i = 0; i < 8; ++i) images.push_back(&ds.train()[static_cast<std::size_t>(i)].image);
  calibrate_batchnorm(net, images);

  std::vector<std::vector<double>> feats;
  std::vector<int> labels;
  int C = 0;
  for (const Sample& smp : ds.train()) {
    std::vector<tensor::Tensor> acts = net.forward_collect(smp.image, {probe});
    const tensor::Tensor& act = acts[0];
    C = act.shape()[0];
    const int hw = act.shape()[1] * act.shape()[2];
    std::vector<double> f(static_cast<std::size_t>(C), 0.0);
    for (int c = 0; c < C; ++c) {
      const float* chan = act.data() + static_cast<std::int64_t>(c) * hw;
      for (int i = 0; i < hw; ++i) f[static_cast<std::size_t>(c)] += chan[i];
      f[static_cast<std::size_t>(c)] /= hw;
    }
    feats.push_back(std::move(f));
    labels.push_back(static_cast<int>(smp.primary));
  }

  const int n = static_cast<int>(feats.size());
  std::vector<std::vector<double>> cls_mean(kGraspCount,
                                            std::vector<double>(static_cast<std::size_t>(C), 0.0));
  std::vector<int> counts(kGraspCount, 0);
  std::vector<double> gmean(static_cast<std::size_t>(C), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < C; ++c) {
      cls_mean[static_cast<std::size_t>(labels[static_cast<std::size_t>(i)])]
              [static_cast<std::size_t>(c)] += feats[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
      gmean[static_cast<std::size_t>(c)] += feats[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
    }
    ++counts[static_cast<std::size_t>(labels[static_cast<std::size_t>(i)])];
  }
  for (int g = 0; g < kGraspCount; ++g)
    for (int c = 0; c < C; ++c)
      cls_mean[static_cast<std::size_t>(g)][static_cast<std::size_t>(c)] /= counts[static_cast<std::size_t>(g)];
  for (int c = 0; c < C; ++c) gmean[static_cast<std::size_t>(c)] /= n;

  double between = 0.0, within = 0.0;
  for (int c = 0; c < C; ++c) {
    for (int g = 0; g < kGraspCount; ++g) {
      const double d = cls_mean[static_cast<std::size_t>(g)][static_cast<std::size_t>(c)] -
                       gmean[static_cast<std::size_t>(c)];
      between += d * d * counts[static_cast<std::size_t>(g)];
    }
    for (int i = 0; i < n; ++i) {
      const double d =
          feats[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)] -
          cls_mean[static_cast<std::size_t>(labels[static_cast<std::size_t>(i)])]
                  [static_cast<std::size_t>(c)];
      within += d * d;
    }
  }
  const double fisher = between / (within + 1e-12);
  // Class-free random features would land near (K-1)/(n-K) ~= 0.04 on this
  // split; require a clear margin above that.
  EXPECT_GT(fisher, 0.06) << "mid-trunk features carry almost no class signal";
}

TEST(Emg, PatternsAreClassSpecificAndNoisy) {
  EmgGenerator gen;
  util::Rng rng(3);
  const tensor::Tensor a = gen.sample(GraspType::kOpenPalm, rng);
  const tensor::Tensor b = gen.sample(GraspType::kPalmarPinch, rng);
  EXPECT_EQ(a.shape(), tensor::Shape::vec(kEmgChannels));
  EXPECT_GT(tensor::max_abs_diff(a, b), 0.05f);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_GE(a[i], 0.0f);
}

TEST(Emg, DatasetBalancedWithSoftLabels) {
  EmgGenerator gen;
  const auto ds = gen.dataset(50, 1);
  ASSERT_EQ(ds.size(), 50u);
  std::vector<int> counts(kGraspCount, 0);
  for (const Sample& s : ds) {
    ++counts[static_cast<std::size_t>(static_cast<int>(s.primary))];
    EXPECT_NEAR(s.label.sum(), 1.0f, 1e-5f);
  }
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(Labels, MakeLabelJitterChangesButPreservesMode) {
  util::Rng rng(1);
  for (int g = 0; g < kGraspCount; ++g) {
    const tensor::Tensor l1 = make_label(static_cast<GraspType>(g), rng, 0.05);
    int argmax = 0;
    for (int i = 1; i < kGraspCount; ++i)
      if (l1[i] > l1[argmax]) argmax = i;
    EXPECT_EQ(argmax, g);
  }
}

}  // namespace
}  // namespace netcut::data
