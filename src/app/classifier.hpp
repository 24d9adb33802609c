// Soft-label classifiers for the robotic hand's two sensing paths. Each
// trains a core::TransferHead, the head NetCut's evaluator scores: one over
// 8-channel EMG features, one over the GlobalAvgPool features of a frozen
// pseudo-pretrained trunk prefix — the deployable counterpart of
// core::TrnEvaluator's accuracy protocol.
//
// Each sensing classifier measures its own reliability once, after fitting,
// on held-out draws the control loop never sees. The control loop uses it
// as the classifier's fusion weight.
#pragma once

#include <memory>
#include <vector>

#include "core/trn.hpp"
#include "data/emg.hpp"
#include "data/hands.hpp"
#include "data/pretrained.hpp"
#include "nn/network.hpp"
#include "zoo/zoo.hpp"

namespace netcut::app {

/// Both sensing classifiers' transfer head (one logit per grasp type) and
/// its Adam learning rate.
inline constexpr core::HeadConfig kMlpHead{.classes = 5, .hidden1 = 32, .hidden2 = 16};
inline constexpr double kMlpLearningRate = 1e-3;

/// The transfer head's training schedule.
struct MlpConfig {
  int epochs = 30;
  std::uint64_t seed = 7;
};

/// The EMG intent classifier of Fig 2: a transfer head over 8-channel
/// synthetic EMG features.
class EmgClassifier {
 public:
  /// Trains on `train_samples` generator draws, then measures reliability()
  /// on fresh EmgGenerator::sample draws seeded from the config's seed.
  EmgClassifier(const data::EmgGenerator& generator, int train_samples, MlpConfig config);

  tensor::Tensor predict(const tensor::Tensor& emg_features) const { return head_.predict(emg_features); }
  double test_accuracy(const data::EmgGenerator& generator, int samples,
                       std::uint64_t seed) const;
  /// Chance-corrected held-out top-1, max(0, (top1 - 1/K) / (1 - 1/K)) with
  /// K = data::kGraspCount: 0 at or below chance, 1 when every draw is
  /// right. The control loop's EMG fusion weight.
  double reliability() const { return reliability_; }

 private:
  core::TransferHead head_;
  double reliability_ = 0.0;
};

/// The visual grasp classifier: frozen trunk prefix (cut at a TRN cut site)
/// + retrained head. Runs real inference on images.
class VisualClassifier {
 public:
  /// Builds the trunk at the dataset resolution with pseudo-pretrained
  /// weights (loaded from `weight_cache_dir` when available), calibrates
  /// batch norms, and trains the head on the dataset's train split. Then
  /// measures reliability() on freshly rendered objects at the dataset's
  /// resolution and noise — not the test split the control loop streams.
  VisualClassifier(zoo::NetId base, int cut_node, const data::HandsDataset& dataset,
                   MlpConfig head_config, const data::PretrainedConfig& pretrained,
                   const std::string& weight_cache_dir = "netcut_weights");

  tensor::Tensor predict(const tensor::Tensor& image) const;
  double test_accuracy(const data::HandsDataset& dataset) const;
  /// Chance-corrected held-out top-1 in [0, 1], as for EmgClassifier: this
  /// classifier's fusion weight. At chance level it is 0, so the classifier
  /// cannot move a decision.
  double reliability() const { return reliability_; }

  zoo::NetId base() const { return base_; }
  int cut_node() const { return cut_node_; }

 private:
  tensor::Tensor features(const tensor::Tensor& image) const;

  zoo::NetId base_;
  int cut_node_;
  std::unique_ptr<nn::Network> trunk_;
  std::unique_ptr<core::TransferHead> head_;
  double reliability_ = 0.0;
};

}  // namespace netcut::app
