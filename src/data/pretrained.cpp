#include "data/pretrained.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "data/hands.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/norm.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "nn/serialize.hpp"

namespace netcut::data {

namespace {

using nn::Graph;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// Source task rendering
// ---------------------------------------------------------------------------

/// Soft silhouettes of the five distractor categories (5..9).
double distractor_silhouette(int category, double u, double v) {
  auto soft = [](double d) { return 1.0 / (1.0 + std::exp(d * 40.0)); };
  switch (category) {
    case 5: {  // ring
      const double r = std::sqrt(u * u + v * v);
      return soft(std::abs(r - 0.26) - 0.07);
    }
    case 6: {  // cross
      const double bar1 = std::max(std::abs(u) - 0.33, std::abs(v) - 0.08);
      const double bar2 = std::max(std::abs(v) - 0.33, std::abs(u) - 0.08);
      return soft(std::min(bar1, bar2));
    }
    case 7: {  // diamond
      return soft(std::abs(u) + std::abs(v) - 0.32);
    }
    case 8: {  // stripes
      const double within = std::max(std::abs(u) - 0.36, std::abs(v) - 0.30);
      const double band = std::abs(std::fmod(std::abs(v) * 10.0, 2.0) - 1.0) - 0.55;
      return soft(std::max(within, band));
    }
    case 9: {  // corner (L-shape)
      const double arm1 = std::max({u - 0.05, -u - 0.30, std::abs(v + 0.12) - 0.18});
      const double arm2 = std::max({v - 0.05, -v - 0.30, std::abs(u + 0.12) - 0.18});
      return soft(std::min(arm1, arm2));
    }
    default:
      throw std::invalid_argument("distractor_silhouette: bad category");
  }
}

/// Appends a pretraining head (GAP -> FC/ReLU -> FC logits) reading from
/// `from`; returns the logits node id. The hidden layer matters: pure
/// linear probes push the trunk toward a brittle, probe-specific feature
/// geometry that transfers poorly; the MLP head absorbs that
/// specialization. (The head trains under a width-scaled learning rate —
/// see below — which also prevents the dying-ReLU collapse a wide head can
/// suffer under a shared rate.)
int add_pretrain_head(Graph& g, int from, int feature_channels, const std::string& name,
                      util::Rng& rng) {
  constexpr int kHidden = 64;
  int x = g.add(std::make_unique<nn::GlobalAvgPool>(), {from}, name + "/gap");
  auto fc1 = std::make_unique<nn::Dense>(feature_channels, kHidden);
  nn::xavier_init_dense(fc1->weight(), rng);
  x = g.add(std::move(fc1), {x}, name + "/fc1");
  x = g.add(std::make_unique<nn::ReLU>(false), {x}, name + "/relu");
  auto fc2 = std::make_unique<nn::Dense>(kHidden, kSourceClasses);
  nn::xavier_init_dense(fc2->weight(), rng);
  return g.add(std::move(fc2), {x}, name + "/logits");
}

std::vector<nn::BatchNorm*> batchnorms_of(Graph& g) {
  std::vector<nn::BatchNorm*> out;
  for (int id = 1; id < g.node_count(); ++id)
    if (g.node(id).layer->kind() == nn::LayerKind::kBatchNorm)
      out.push_back(&static_cast<nn::BatchNorm&>(*g.node(id).layer));
  return out;
}

void collect_bn_stats(nn::Network& net, const std::vector<Tensor>& images, int max_images) {
  const std::size_t count = std::min(static_cast<std::size_t>(max_images), images.size());
  std::vector<const Tensor*> batch;
  for (std::size_t i = 0; i < count; ++i) batch.push_back(&images[i]);
  calibrate_batchnorm(net, batch);
}

}  // namespace

Tensor render_source_object(int category, int resolution, util::Rng& rng,
                            double background_noise) {
  if (category < 0 || category >= kSourceClasses)
    throw std::invalid_argument("render_source_object: bad category");
  if (category < kGraspCount)
    return render_object(static_cast<GraspType>(category), resolution, rng,
                         background_noise);

  // Distractors share the grasp renderer's pose/background conventions,
  // including overlapping per-category tints (see data::random_pose).
  static constexpr float kTint[5][3] = {
      {0.75f, 0.75f, 0.30f},  // ring     (yellow)
      {0.60f, 0.30f, 0.70f},  // cross    (purple)
      {0.70f, 0.70f, 0.35f},  // diamond  (yellow, near ring)
      {0.50f, 0.50f, 0.50f},  // stripes  (gray)
      {0.55f, 0.30f, 0.65f},  // corner   (purple, near cross)
  };
  Tensor img(tensor::Shape::chw(3, resolution, resolution));
  const double cx = rng.uniform(0.42, 0.58);
  const double cy = rng.uniform(0.42, 0.58);
  const double angle = rng.uniform(-0.35, 0.35);
  const double scale = rng.uniform(0.9, 1.1);
  const float* tint = kTint[category - kGraspCount];
  const double w = 0.65;
  const float col[3] = {static_cast<float>(w * tint[0] + (1.0 - w) * rng.uniform(0.2, 0.95)),
                        static_cast<float>(w * tint[1] + (1.0 - w) * rng.uniform(0.2, 0.95)),
                        static_cast<float>(w * tint[2] + (1.0 - w) * rng.uniform(0.2, 0.95))};
  const float bg0 = static_cast<float>(rng.uniform(0.25, 0.6));
  const float bg1 = static_cast<float>(rng.uniform(0.25, 0.6));
  const double ca = std::cos(angle), sa = std::sin(angle);

  for (int y = 0; y < resolution; ++y) {
    for (int x = 0; x < resolution; ++x) {
      const double fx = (x + 0.5) / resolution;
      const double fy = (y + 0.5) / resolution;
      const double du = (fx - cx) / scale;
      const double dv = (fy - cy) / scale;
      const double u = ca * du + sa * dv;
      const double v = -sa * du + ca * dv;
      const double m = distractor_silhouette(category, u, v);
      const float bg = bg0 * static_cast<float>(1.0 - fx) + bg1 * static_cast<float>(fy);
      for (int c = 0; c < 3; ++c) {
        double value = bg * (1.0 - m) + col[c] * m;
        value += rng.normal(0.0, background_noise);
        img.at(c, y, x) = static_cast<float>(std::clamp(value, 0.0, 1.0));
      }
    }
  }
  return img;
}

PretrainReport generate_pretrained_weights(nn::Graph& trunk,
                                           const PretrainedConfig& config) {
  if (config.source_images < kSourceClasses)
    throw std::invalid_argument("generate_pretrained_weights: too few source images");
  if (config.source_images % kPretrainBatchSize != 0)
    throw std::invalid_argument(
        "generate_pretrained_weights: source images not a multiple of the batch size");
  util::Rng rng(util::derive_seed(config.seed, "pretrain"));
  const int resolution = trunk.input_shape()[1];
  const int trunk_nodes = trunk.node_count();

  // Auxiliary supervision point: the block-end cut at the onset fraction.
  const auto blocks = trunk.blocks();
  if (blocks.empty())
    throw std::invalid_argument("generate_pretrained_weights: trunk has no blocks");
  int onset_index = static_cast<int>(kSpecializationOnset *
                                     static_cast<double>(blocks.size())) -
                    1;
  onset_index = std::clamp(onset_index, 0, static_cast<int>(blocks.size()) - 2);
  const int onset_node = blocks[static_cast<std::size_t>(onset_index)].last_node;

  // Training graph: trunk copy + aux head at the onset + final head on top.
  Graph g = trunk;
  nn::init_graph(g, rng);
  // Residual stability: BatchNorms that feed an Add start with a small
  // gamma, so residual branches begin near-identity and activation
  // magnitudes cannot compound across the deep Add chains (the zero-gamma
  // initialization of Goyal et al., without which the MobileNetV2/ResNet
  // trunks saturate their clipped activations and stop learning).
  for (int id = 1; id < g.node_count(); ++id) {
    if (g.node(id).layer->kind() != nn::LayerKind::kAdd) continue;
    for (int src : g.node(id).inputs) {
      nn::Layer& producer = *g.node(src).layer;
      if (producer.kind() == nn::LayerKind::kBatchNorm)
        static_cast<nn::BatchNorm&>(producer).gamma().fill(0.2f);
    }
  }
  const std::vector<tensor::Shape> shapes = g.infer_shapes();
  const int aux_logits = add_pretrain_head(
      g, onset_node, shapes[static_cast<std::size_t>(onset_node)][0], "aux", rng);
  const int final_logits = add_pretrain_head(
      g, trunk_nodes - 1, shapes[static_cast<std::size_t>(trunk_nodes - 1)][0], "final", rng);
  nn::Network net(std::move(g));
  for (nn::BatchNorm* bn : batchnorms_of(net.graph())) bn->set_freeze_stats(true);

  // Source-task dataset, balanced over the ten categories.
  util::Rng render_rng(util::derive_seed(config.seed, "pretrain/source"));
  std::vector<Tensor> images;
  std::vector<Tensor> targets;  // one-hot over the source classes
  std::vector<int> labels;
  images.reserve(static_cast<std::size_t>(config.source_images));
  for (int i = 0; i < config.source_images; ++i) {
    const int cls = i % kSourceClasses;
    images.push_back(render_source_object(cls, resolution, render_rng, 0.05));
    Tensor t(tensor::Shape::vec(kSourceClasses));
    t[cls] = 1.0f;
    targets.push_back(std::move(t));
    labels.push_back(cls);
  }

  collect_bn_stats(net, images, 40);

  // Trunk and heads get separate optimizers: a linear probe's logits move
  // by ~lr * width per Adam step, so wide heads need a width-scaled rate
  // to avoid oscillation.
  std::vector<tensor::Tensor*> trunk_params, trunk_grads;
  std::vector<tensor::Tensor*> aux_params, aux_grads, final_params, final_grads;
  for (int id = 1; id < net.graph().node_count(); ++id) {
    nn::Layer& layer = *net.graph().node(id).layer;
    auto& params = id < trunk_nodes ? trunk_params
                   : id <= aux_logits ? aux_params
                                      : final_params;
    auto& grads = id < trunk_nodes ? trunk_grads
                  : id <= aux_logits ? aux_grads
                                     : final_grads;
    for (tensor::Tensor* p : layer.params()) params.push_back(p);
    for (tensor::Tensor* g2 : layer.grads()) grads.push_back(g2);
  }
  auto head_lr = [&](int width) {
    return kPretrainLearningRate * 64.0 / std::max(64, width);
  };
  nn::Adam opt(kPretrainLearningRate);
  opt.bind(trunk_params, trunk_grads);
  nn::Adam aux_opt(head_lr(shapes[static_cast<std::size_t>(onset_node)][0]));
  aux_opt.bind(aux_params, aux_grads);
  nn::Adam final_opt(head_lr(shapes[static_cast<std::size_t>(trunk_nodes - 1)][0]));
  final_opt.bind(final_params, final_grads);

  PretrainReport report;
  const int n = static_cast<int>(images.size());
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    // Step-decay schedule: settle in the final third.
    if (epoch == config.epochs * 2 / 3) {
      opt.set_learning_rate(opt.learning_rate() * 0.3);
      aux_opt.set_learning_rate(aux_opt.learning_rate() * 0.3);
      final_opt.set_learning_rate(final_opt.learning_rate() * 0.3);
    }
    double epoch_loss = 0.0;
    int in_batch = 0;
    int steps_since_refresh = 0;
    net.zero_grads();
    for (int i : rng.permutation(n)) {
      const auto logits = net.forward_collect(images[static_cast<std::size_t>(i)],
                                              {aux_logits, final_logits}, /*train=*/true);
      const auto aux = nn::loss::soft_cross_entropy(logits[0], targets[static_cast<std::size_t>(i)]);
      const auto fin = nn::loss::soft_cross_entropy(logits[1], targets[static_cast<std::size_t>(i)]);
      Tensor aux_grad = aux.grad;
      aux_grad *= static_cast<float>(kAuxWeight / kPretrainBatchSize);
      Tensor fin_grad = fin.grad;
      fin_grad *= 1.0f / static_cast<float>(kPretrainBatchSize);
      net.backward_multi({{aux_logits, aux_grad}, {final_logits, fin_grad}});
      if (++in_batch == kPretrainBatchSize) {
        opt.step();
        aux_opt.step();
        final_opt.step();
        net.zero_grads();
        in_batch = 0;
        ++report.steps;
        // Frozen statistics drift as the weights move; refresh them a few
        // times per epoch so clipped activations stay in range.
        if (++steps_since_refresh >= 30) {
          collect_bn_stats(net, images, 16);
          steps_since_refresh = 0;
        }
      }
      epoch_loss += fin.value + kAuxWeight * aux.value;
    }
    report.final_loss = epoch_loss / n;
    // Statistics drift with the weights: re-collect once per epoch.
    collect_bn_stats(net, images, 40);
  }

  // Source-task accuracy (diagnostic; also a test hook).
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    const auto logits =
        net.forward_collect(images[static_cast<std::size_t>(i)], {final_logits}, false);
    int best = 0;
    for (int c = 1; c < kSourceClasses; ++c)
      if (logits[0][c] > logits[0][best]) best = c;
    if (best == labels[static_cast<std::size_t>(i)]) ++correct;
  }
  report.source_accuracy = static_cast<double>(correct) / n;

  // Copy the trained trunk portion (weights + BN statistics) back.
  nn::copy_state(net.graph(), trunk);
  return report;
}

void calibrate_batchnorm(nn::Network& net,
                         const std::vector<const tensor::Tensor*>& images) {
  if (images.empty()) throw std::invalid_argument("calibrate_batchnorm: no images");
  auto norms = batchnorms_of(net.graph());
  for (nn::BatchNorm* bn : norms) bn->begin_stat_collection();
  // Batched: each BatchNorm runs the images in order, so image i sees the
  // sums of images 0..i exactly as a loop of single-image forwards would.
  (void)net.forward_batch(images);
  for (nn::BatchNorm* bn : norms) bn->end_stat_collection();
}

}  // namespace netcut::data
