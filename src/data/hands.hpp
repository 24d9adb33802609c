// Synthetic stand-in for the HANDS dataset (Han et al., 2020): palm-camera
// images of graspable objects with *probabilistic* grasp-type labels.
//
// Substitution note (see DESIGN.md): the real HANDS dataset is not
// redistributable here, so we render procedural objects whose silhouettes
// map to the paper's five grasp types. Labels are probability distributions
// (objects can be grasped several ways), evaluated by angular similarity —
// the same label structure and metric as the paper.
#pragma once

#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace netcut::data {

using tensor::Tensor;

/// The paper's five grasp types (Section III-B2).
enum class GraspType {
  kOpenPalm = 0,
  kMediumWrap = 1,
  kPowerSphere = 2,
  kParallelExtension = 3,
  kPalmarPinch = 4,
};
inline constexpr int kGraspCount = 5;

struct Sample {
  Tensor image;   // [3, res, res] in [0, 1]
  Tensor label;   // [5] probability distribution
  GraspType primary;
};

struct HandsConfig {
  int resolution = 32;
  int train_count = 400;
  int test_count = 150;
  std::uint64_t seed = 42;
};

/// Stdev of the per-pixel noise in every rendered dataset image.
inline constexpr double kBackgroundNoise = 0.06;

class HandsDataset {
 public:
  explicit HandsDataset(const HandsConfig& config);

  const std::vector<Sample>& train() const { return train_; }
  const std::vector<Sample>& test() const { return test_; }
  const HandsConfig& config() const { return config_; }

  /// A random subset of the training set (the paper uses 10% of train as
  /// the post-training-quantization calibration set).
  std::vector<const Sample*> calibration_set(double fraction, std::uint64_t seed) const;

 private:
  HandsConfig config_;
  std::vector<Sample> train_;
  std::vector<Sample> test_;
};

/// Renders a single object image for the given grasp type (exposed so tests
/// can probe the renderer directly).
Tensor render_object(GraspType type, int resolution, util::Rng& rng, double background_noise);

/// The label distribution for an object of the given primary grasp type,
/// with per-sample jitter.
Tensor make_label(GraspType type, util::Rng& rng, double jitter);

}  // namespace netcut::data
