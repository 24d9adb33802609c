// Pseudo-pretrained weight generation — the stand-in for "ImageNet
// pretrained" trunks (see DESIGN.md substitution table).
//
// Real pretraining makes deeper features progressively *more* useful for a
// related target task, up to the depth where they turn source-specific
// (Yosinski et al.). The generator reproduces both properties by actually
// *training* each trunk (with this repository's own backprop) on a
// synthetic source task that stands in for ImageNet:
//
//  1. The source task has ten categories: the five grasp-shape classes the
//     HANDS target task also uses, plus five distractors (ring, cross,
//     diamond, stripes, corner). A superset of the target's visual world —
//     the transfer-learning setting of the paper.
//  2. The trunk is trained end to end on this task with two supervision
//     points: the final head on the full trunk, and an auxiliary head at
//     the specialization-onset cut. Deep supervision makes the features at
//     the onset already sufficient for the (simpler) target classes, so
//     the layers above it specialize on the residual source-task detail —
//     exactly the "last layers are problem-specific" structure layer
//     removal exploits (the plateau in the paper's Figs 4/5).
//  3. BatchNorms train in the frozen-statistics regime (normalized by
//     running statistics, re-collected every epoch) — the standard
//     fine-tuning treatment, and the only numerically sane one once deep
//     feature maps shrink toward 1x1 at the reduced experiment resolution.
//
// Training is deterministic for a given seed. Because it costs minutes for
// the deep trunks, core::pretrained_trunk caches the resulting weights on
// disk (nn::save_params / load_params).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/network.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace netcut::data {

inline constexpr int kSourceClasses = 10;  // 5 grasp shapes + 5 distractors

/// Depth fraction (by block ordinal) of the auxiliary supervision point;
/// features above it are source-specific.
inline constexpr double kSpecializationOnset = 0.55;
inline constexpr double kPretrainLearningRate = 2e-3;
/// Gradients accumulate over this many images per optimizer step;
/// PretrainedConfig::source_images must be a multiple of it.
inline constexpr int kPretrainBatchSize = 4;
/// Loss weight of the auxiliary (deep-supervision) head.
inline constexpr double kAuxWeight = 1.0;

struct PretrainedConfig {
  std::uint64_t seed = 7;
  /// Source-task training set size (balanced over the ten categories; a
  /// multiple of kPretrainBatchSize). Generous relative to the epoch count:
  /// a small source set memorizes and the overfit deep features stop
  /// transferring.
  int source_images = 600;
  /// Pretraining epochs.
  int epochs = 16;
};

/// Renders one image of the extended source-task category set
/// (0..4: the grasp shapes, 5..9: distractors). Exposed for tests.
tensor::Tensor render_source_object(int category, int resolution, util::Rng& rng,
                                    double background_noise);

struct PretrainReport {
  double final_loss = 0.0;        // mean source-task loss, last epoch
  double source_accuracy = 0.0;   // top-1 on the training set after training
  int steps = 0;
};

/// Pretrains the trunk in place on the synthetic source task and leaves
/// every BatchNorm calibrated. Returns training diagnostics. Throws
/// std::invalid_argument when source_images is below kSourceClasses or not
/// a multiple of kPretrainBatchSize.
PretrainReport generate_pretrained_weights(nn::Graph& trunk, const PretrainedConfig& config);

/// Runs the calibration images through the network in stat-collection mode
/// and installs the observed running statistics into every BatchNorm.
void calibrate_batchnorm(nn::Network& net, const std::vector<const tensor::Tensor*>& images);

}  // namespace netcut::data
