#include "data/hands.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netcut::data {

namespace {

constexpr double kLabelJitter = 0.05;  // concentration of label perturbation

struct Pose {
  double cx, cy;     // center in [0,1] image coords
  double angle;      // radians
  double scale;      // relative size
  float r, g, b;     // object base color
};

Pose random_pose(GraspType type, util::Rng& rng) {
  // Palm-camera poses are near-canonical: during a reach the wrist
  // orients the camera toward the object, so orientation/position/scale
  // vary only moderately.
  Pose p;
  p.cx = rng.uniform(0.42, 0.58);
  p.cy = rng.uniform(0.42, 0.58);
  p.angle = rng.uniform(-0.35, 0.35);
  p.scale = rng.uniform(0.9, 1.1);
  // Object appearance correlates with category (plates and bottles skew
  // warm, balls and cards skew cool, ...) but deliberately *overlaps*
  // between silhouette-confusable pairs: color alone separates only the
  // coarse groups; resolving within a group requires shape, i.e. deeper
  // features. This mirrors real object datasets, where texture/color carry
  // part of the signal and geometry the rest.
  static constexpr float kTint[kGraspCount][3] = {
      {0.80f, 0.35f, 0.30f},  // OpenPalm        (warm)
      {0.75f, 0.45f, 0.25f},  // MediumWrap      (warm, near OpenPalm)
      {0.30f, 0.40f, 0.80f},  // PowerSphere     (cool)
      {0.35f, 0.50f, 0.75f},  // ParallelExt.    (cool, near PowerSphere)
      {0.35f, 0.75f, 0.40f},  // PalmarPinch     (green)
  };
  const float* tint = kTint[static_cast<int>(type)];
  const double w = 0.65;  // tint strength; the rest is per-object variation
  p.r = static_cast<float>(w * tint[0] + (1.0 - w) * rng.uniform(0.2, 0.95));
  p.g = static_cast<float>(w * tint[1] + (1.0 - w) * rng.uniform(0.2, 0.95));
  p.b = static_cast<float>(w * tint[2] + (1.0 - w) * rng.uniform(0.2, 0.95));
  return p;
}

/// Signed-distance-ish coverage of a point (u, v) in object coordinates for
/// each grasp-type silhouette. Returns [0, 1] soft mask.
double silhouette(GraspType type, double u, double v) {
  auto soft = [](double d) { return 1.0 / (1.0 + std::exp(d * 40.0)); };
  switch (type) {
    case GraspType::kOpenPalm: {
      // Large flat plate: wide ellipse.
      const double d = std::sqrt((u * u) / (0.40 * 0.40) + (v * v) / (0.26 * 0.26)) - 1.0;
      return soft(d * 0.3);
    }
    case GraspType::kMediumWrap: {
      // Bottle / cylinder: tall rounded bar.
      const double dx = std::max(0.0, std::abs(u) - 0.12);
      const double dy = std::max(0.0, std::abs(v) - 0.30);
      return soft(std::sqrt(dx * dx + dy * dy) - 0.05);
    }
    case GraspType::kPowerSphere: {
      // Ball: disc with radial shading handled by the caller.
      const double d = std::sqrt(u * u + v * v) - 0.28;
      return soft(d);
    }
    case GraspType::kParallelExtension: {
      // Thin book/card: long, very flat bar.
      const double dx = std::max(0.0, std::abs(u) - 0.38);
      const double dy = std::max(0.0, std::abs(v) - 0.05);
      return soft(std::sqrt(dx * dx + dy * dy) - 0.02);
    }
    case GraspType::kPalmarPinch: {
      // Small pellet: tiny disc.
      const double d = std::sqrt(u * u + v * v) - 0.10;
      return soft(d);
    }
  }
  return 0.0;
}

}  // namespace

Tensor render_object(GraspType type, int resolution, util::Rng& rng,
                     double background_noise) {
  Tensor img(tensor::Shape::chw(3, resolution, resolution));
  const Pose pose = random_pose(type, rng);

  // Background: smooth two-corner gradient (tabletop) plus noise.
  const float bg0 = static_cast<float>(rng.uniform(0.25, 0.6));
  const float bg1 = static_cast<float>(rng.uniform(0.25, 0.6));
  const double ca = std::cos(pose.angle);
  const double sa = std::sin(pose.angle);

  for (int y = 0; y < resolution; ++y) {
    for (int x = 0; x < resolution; ++x) {
      const double fx = (x + 0.5) / resolution;
      const double fy = (y + 0.5) / resolution;
      // Rotate into object coordinates.
      const double du = (fx - pose.cx) / pose.scale;
      const double dv = (fy - pose.cy) / pose.scale;
      const double u = ca * du + sa * dv;
      const double v = -sa * du + ca * dv;

      const double m = silhouette(type, u, v);
      // Radial shading gives spheres a 3-D cue distinguishing them from
      // flat discs of similar extent.
      double shade = 1.0;
      if (type == GraspType::kPowerSphere) {
        const double r2 = (u * u + v * v) / (0.28 * 0.28);
        shade = std::sqrt(std::max(0.0, 1.0 - std::min(1.0, r2))) * 0.6 + 0.4;
      }
      const float bg = bg0 * static_cast<float>(1.0 - fx) + bg1 * static_cast<float>(fy);
      const float base[3] = {pose.r, pose.g, pose.b};
      for (int c = 0; c < 3; ++c) {
        const double obj = base[c] * shade;
        double value = bg * (1.0 - m) + obj * m;
        value += rng.normal(0.0, background_noise);
        img.at(c, y, x) = static_cast<float>(std::clamp(value, 0.0, 1.0));
      }
    }
  }
  return img;
}

Tensor make_label(GraspType type, util::Rng& rng, double jitter) {
  // Base preference distributions: the primary grasp dominates but related
  // grasps keep probability mass (objects afford multiple grasps).
  static const double kBase[kGraspCount][kGraspCount] = {
      // OP    MW    PS    PE    PP        primary:
      {0.70, 0.05, 0.05, 0.15, 0.05},  // OpenPalm (plates also slide: PE)
      {0.05, 0.70, 0.15, 0.05, 0.05},  // MediumWrap (bottles also palm: PS)
      {0.05, 0.20, 0.65, 0.05, 0.05},  // PowerSphere (balls also wrap: MW)
      {0.15, 0.05, 0.05, 0.65, 0.10},  // ParallelExtension (cards also pinch)
      {0.05, 0.05, 0.10, 0.10, 0.70},  // PalmarPinch
  };
  Tensor label(tensor::Shape::vec(kGraspCount));
  double total = 0.0;
  const int t = static_cast<int>(type);
  for (int i = 0; i < kGraspCount; ++i) {
    const double jittered =
        std::max(1e-3, kBase[t][i] * std::exp(rng.normal(0.0, jitter * 3.0)));
    label[i] = static_cast<float>(jittered);
    total += jittered;
  }
  for (int i = 0; i < kGraspCount; ++i)
    label[i] = static_cast<float>(label[i] / total);
  return label;
}

HandsDataset::HandsDataset(const HandsConfig& config) : config_(config) {
  if (config.resolution < 8) throw std::invalid_argument("HandsDataset: resolution too small");
  util::Rng train_rng(util::derive_seed(config.seed, "hands/train"));
  util::Rng test_rng(util::derive_seed(config.seed, "hands/test"));

  auto generate = [&](util::Rng& rng, int count, std::vector<Sample>& out) {
    out.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      Sample s;
      s.primary = static_cast<GraspType>(i % kGraspCount);  // balanced classes
      s.image = render_object(s.primary, config.resolution, rng, kBackgroundNoise);
      s.label = make_label(s.primary, rng, kLabelJitter);
      out.push_back(std::move(s));
    }
  };
  generate(train_rng, config.train_count, train_);
  generate(test_rng, config.test_count, test_);
}

std::vector<const Sample*> HandsDataset::calibration_set(double fraction,
                                                         std::uint64_t seed) const {
  if (fraction <= 0.0 || fraction > 1.0)
    throw std::invalid_argument("calibration_set: fraction out of range");
  util::Rng rng(util::derive_seed(seed, "hands/calibration"));
  const int count =
      std::max(1, static_cast<int>(fraction * static_cast<double>(train_.size())));
  std::vector<int> order = rng.permutation(static_cast<int>(train_.size()));
  std::vector<const Sample*> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    out.push_back(&train_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])]);
  return out;
}

}  // namespace netcut::data
