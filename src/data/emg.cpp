#include "data/emg.hpp"

#include <cmath>

namespace netcut::data {

constexpr std::uint64_t kSubjectSeed = 99;
constexpr double kNoise = 0.15;           // additive feature noise
constexpr double kElectrodeShift = 0.35;  // channel-rotation blur (donning variation)

EmgGenerator::EmgGenerator() {
  // Fixed characteristic patterns: each grasp recruits a different subset
  // of forearm muscles. Generated once from the seed so the "subject" is
  // stable across the session.
  util::Rng rng(util::derive_seed(kSubjectSeed, "emg/patterns"));
  for (int g = 0; g < kGraspCount; ++g) {
    for (int c = 0; c < kEmgChannels; ++c) {
      // Smooth bump centered at a grasp-specific channel.
      const double center = g * static_cast<double>(kEmgChannels) / kGraspCount;
      const double dist = std::min(std::abs(c - center),
                                   kEmgChannels - std::abs(c - center));  // circular band
      pattern_[g][c] = static_cast<float>(std::exp(-dist * dist / 2.0) * rng.uniform(0.7, 1.0) +
                                          rng.uniform(0.0, 0.15));
    }
  }
}

Tensor EmgGenerator::sample(GraspType intent, util::Rng& rng) const {
  Tensor x(tensor::Shape::vec(kEmgChannels));
  const int g = static_cast<int>(intent);
  // Electrode shift: circular blur of the pattern by a random sub-channel
  // offset, modelling band-donning variation.
  const double shift = rng.normal(0.0, kElectrodeShift);
  for (int c = 0; c < kEmgChannels; ++c) {
    const double pos = c + shift;
    const int c0 = static_cast<int>(std::floor(pos));
    const double frac = pos - c0;
    const int a = ((c0 % kEmgChannels) + kEmgChannels) % kEmgChannels;
    const int b = (a + 1) % kEmgChannels;
    double v = pattern_[g][a] * (1.0 - frac) + pattern_[g][b] * frac;
    v *= rng.uniform(0.8, 1.2);          // contraction-strength variation
    v += rng.normal(0.0, kNoise);  // sensor noise
    x[c] = static_cast<float>(std::max(0.0, v));
  }
  return x;
}

std::vector<Sample> EmgGenerator::dataset(int count, std::uint64_t seed) const {
  util::Rng rng(util::derive_seed(seed, "emg/dataset"));
  std::vector<Sample> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Sample s;
    s.primary = static_cast<GraspType>(i % kGraspCount);
    s.image = sample(s.primary, rng);  // rank-1 "image": the feature vector
    s.label = make_label(s.primary, rng, 0.05);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace netcut::data
