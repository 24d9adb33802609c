// Synthetic EMG feature generation — stand-in for the Myo-band stream that
// feeds the robotic hand's EMG classifier (Fig 2). Each grasp intent
// produces a characteristic 8-channel activation pattern (per-channel RMS
// features) with additive noise and electrode-shift variation.
#pragma once

#include "data/hands.hpp"

namespace netcut::data {

inline constexpr int kEmgChannels = 8;

/// One simulated subject: fixed per-grasp patterns, additive feature noise
/// and electrode-shift blur (the constants live in emg.cpp).
class EmgGenerator {
 public:
  EmgGenerator();

  /// An 8-channel RMS feature vector for one muscle contraction with the
  /// given grasp intent.
  Tensor sample(GraspType intent, util::Rng& rng) const;

  /// A labelled dataset of (features, soft label) pairs for training the
  /// EMG classifier.
  std::vector<Sample> dataset(int count, std::uint64_t seed) const;

 private:
  // Per-grasp mean activation pattern [grasp][channel].
  float pattern_[kGraspCount][kEmgChannels];
};

}  // namespace netcut::data
