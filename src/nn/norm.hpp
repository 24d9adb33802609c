// Per-channel batch normalization over CHW activations.
//
// Three modes:
//  - inference (default): y = gamma * (x - running_mean) / sqrt(running_var
//    + eps) + beta. Used by all transfer-learning experiments.
//  - training: normalizes with the current image's spatial statistics and
//    supports backward (exercised in tests / tiny fine-tuning).
//  - stat collection: accumulates running statistics from calibration images
//    (used by data::calibrate_batchnorm after pseudo-pretrained weight
//    generation so deep stacks stay numerically well-conditioned).
#pragma once

#include "nn/layer.hpp"

namespace netcut::nn {

class BatchNorm final : public Layer {
 public:
  explicit BatchNorm(int channels, float eps = 1e-3f);

  LayerKind kind() const override { return LayerKind::kBatchNorm; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<BatchNorm>(*this); }

  Shape output_shape(const std::vector<Shape>& in) const override;
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                    float* scratch) override;
  /// Collecting statistics, each channel runs the lanes in image order, so
  /// image b sees the sums of images 0..b exactly as in a loop of
  /// single-image forwards; otherwise the lanes run in parallel.
  void forward_lanes(std::span<LaneIO> lanes, float* batch_scratch) override;
  std::vector<Tensor> backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> grads() override {
    return {&grad_for(grad_gamma_, gamma_), &grad_for(grad_beta_, beta_)};
  }
  std::vector<Tensor*> state() override {
    return {&gamma_, &beta_, &running_mean_, &running_var_};
  }
  LayerCost cost(const std::vector<Shape>& in) const override;

  int channels() const { return channels_; }
  float eps() const { return eps_; }
  Tensor& gamma() { return gamma_; }
  Tensor& beta() { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }
  const Tensor& gamma() const { return gamma_; }
  const Tensor& beta() const { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

  // ---- Calibration protocol ----
  void begin_stat_collection();
  /// Folds the accumulated sums into running_mean / running_var.
  void end_stat_collection();

  // ---- Frozen-statistics training ----
  /// With frozen stats, train-mode forward normalizes by the running
  /// statistics (treated as constants in backward) instead of the current
  /// image's spatial statistics. This is the standard fine-tuning regime,
  /// and the only numerically sane one once deep feature maps shrink
  /// toward 1x1 (per-image spatial stats would zero them out).
  void set_freeze_stats(bool freeze) { freeze_stats_ = freeze; }

 private:
  int channels_;
  float eps_;
  Tensor gamma_, beta_, running_mean_, running_var_;
  Tensor grad_gamma_, grad_beta_;

  /// Adds one image's channel-c sums and writes that channel normalized
  /// by the statistics so far: `count` samples per channel, this image's
  /// included.
  void collect_channel(int c, const float* src, float* dst, int hw, std::int64_t count);

  bool collecting_ = false;
  bool freeze_stats_ = false;
  Tensor stat_sum_, stat_sumsq_;
  std::int64_t stat_count_ = 0;  // samples per channel accumulated

  // Train-mode cache.
  bool cached_frozen_ = false;
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  // per channel
};

}  // namespace netcut::nn
