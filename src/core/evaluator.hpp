// TRN accuracy evaluation — the transfer-learning retraining loop.
//
// For each base network the evaluator builds the trunk once at the
// experiment resolution, installs pseudo-pretrained weights, calibrates
// batch norms, and runs every train/test image through it a single time,
// harvesting GlobalAvgPool features at *every* candidate cut site. Each
// TRN's head (a TransferHead: 2x FC/ReLU + FC, trained on logits with
// soft-target cross-entropy) is then retrained for real on those features —
// mathematically the paper's frozen-trunk transfer phase, at a cost that
// fits one CPU core. Accuracy is mean angular similarity on the held-out
// test set (Section III-A).
//
// Results are memoized to a CSV cache keyed by a config hash, so the bench
// suite reruns instantly.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/trn.hpp"
#include "data/hands.hpp"
#include "data/pretrained.hpp"
#include "util/ranked_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace netcut::core {

struct EvalConfig {
  int resolution = 32;
  std::uint64_t seed = 42;
  int epochs = 20;  // head training epochs (default HeadConfig, Adam at 1e-3)
  data::PretrainedConfig pretrained;
  /// Accuracy memo file; empty string disables caching.
  std::string cache_path = "netcut_accuracy_cache.csv";
  /// Directory for pretrained-trunk weight files; empty disables caching
  /// (every evaluator instance then re-pretrains, which is slow).
  std::string weight_cache_dir = "netcut_weights";
};

struct AccuracyResult {
  double angular_similarity = 0.0;  // the paper's accuracy metric
  double top1 = 0.0;
};

/// Per-test-image outcome of the retrained head at one cut — the raw
/// material for cascade calibration. Image order matches the dataset's test
/// order; all vectors share its length.
struct PerImageEval {
  std::vector<double> margin;   // softmax top1 - top2 probability (confidence)
  std::vector<double> angular;  // angular similarity against the soft label
  std::vector<char> correct;    // top1 agreement with the label (0/1)
};

class TrnEvaluator {
 public:
  TrnEvaluator(const data::HandsDataset& dataset, EvalConfig config);

  /// Accuracy of the TRN cut at `cut_node` (a trunk node id; use
  /// full_cut(base) for the untrimmed network). Memoized. Thread-safe:
  /// concurrent calls for the same base share one feature extraction and a
  /// mutex-guarded memo; per-cut head training is independent and seeded
  /// from the cut key, so results are identical at any thread count.
  AccuracyResult accuracy(zoo::NetId base, int cut_node);

  /// Materialize the per-base trunk features up front (runs the parallel
  /// feature-extraction pass). Callers that fan accuracy() calls out across
  /// pool workers should prepare first so the expensive extraction happens
  /// at the outer parallelism level exactly once.
  void prepare(zoo::NetId base) { state(base); }

  /// True when accuracy(base, cut_node) would be answered from the memo
  /// (loading the memo file on first use) without training or features.
  bool memoized(zoo::NetId base, int cut_node);

  /// Per-test-image margins / similarities / agreements of the TRN cut at
  /// `cut_node`. The head is retrained with exactly the op order and seed of
  /// accuracy(), so aggregate metrics agree with the memoized accuracy.
  /// Memoized in-memory per (base, cut); the returned reference stays valid
  /// for the evaluator's lifetime. Thread-safe like accuracy().
  const PerImageEval& per_image(zoo::NetId base, int cut_node);

  /// Cut node id representing "no removal" for this base network.
  int full_cut(zoo::NetId base);

  /// All legal cut sites (output dominators) of the base trunk at the
  /// evaluation resolution; node ids are identical at any resolution.
  const std::vector<int>& cutpoints(zoo::NetId base);

  const EvalConfig& config() const { return config_; }
  const data::HandsDataset& dataset() const { return dataset_; }

  /// Stable hash of (EvalConfig, dataset config): the memo-key component
  /// that invalidates cached accuracies across config changes.
  std::uint64_t config_hash() const { return config_hash_; }

  /// Malformed/truncated rows skipped by the last cache load (a crash
  /// mid-append leaves a torn last line; corrupted rows are dropped with a
  /// warning and the cache file is healed in place).
  int cache_rows_skipped() const {
    util::MutexLock lock(cache_mutex_);
    return cache_rows_skipped_;
  }

 private:
  /// What a base's one feature pass leaves behind; the trunk itself is
  /// dropped once its features are harvested.
  struct NetState {
    std::vector<int> cutpoints;  // dominators, depth order
    // GAP features per cut node id, aligned with dataset train/test order.
    std::map<int, std::vector<tensor::Tensor>> train_features;
    std::map<int, std::vector<tensor::Tensor>> test_features;
  };

  NetState& state(zoo::NetId base);
  /// "net|cut|config hash": seeds the head trained at this cut, the same
  /// under either kernel backend.
  std::string seed_key(zoo::NetId base, int cut_node) const;
  /// seed_key plus the active kernel backend, the accuracy memo's key: the
  /// backends round the trunk's features differently, and so its accuracy.
  std::string cache_key(zoo::NetId base, int cut_node) const;
  /// Softmax predictions on the test set of the TransferHead retrained on
  /// the cut's train features, seeded from seed_key: accuracy() and
  /// per_image() see the same head.
  std::vector<tensor::Tensor> retrained_predictions(zoo::NetId base, int cut_node);
  void load_cache() NETCUT_REQUIRES(cache_mutex_);
  void append_cache(const std::string& key, const AccuracyResult& r)
      NETCUT_REQUIRES(cache_mutex_);

  const data::HandsDataset& dataset_;
  EvalConfig config_;          // immutable after construction
  std::uint64_t config_hash_;  // immutable after construction
  /// Guards states_ and structure_; held across a base's one-time feature
  /// materialization so concurrent callers share a single extraction pass.
  /// Rank kEvalStates: the materialization fans out over the thread pool
  /// (kPool) underneath it; map entries are immutable once inserted and
  /// their references stay valid, so readers of a *materialized* state
  /// need no lock.
  mutable util::RankedMutex states_mutex_{util::rank::kEvalStates, "core/evaluator.states"};
  /// Guards cache_, cache_loaded_, cache_rows_skipped_, the memo file.
  mutable util::RankedMutex cache_mutex_{util::rank::kEvalCache, "core/evaluator.cache"};
  std::map<zoo::NetId, NetState> states_ NETCUT_GUARDED_BY(states_mutex_);
  // cutpoints w/o features
  std::map<zoo::NetId, std::vector<int>> structure_ NETCUT_GUARDED_BY(states_mutex_);
  std::map<std::string, AccuracyResult> cache_ NETCUT_GUARDED_BY(cache_mutex_);
  // Per-image memo; std::map node stability keeps returned references valid.
  std::map<std::pair<zoo::NetId, int>, PerImageEval> per_image_ NETCUT_GUARDED_BY(cache_mutex_);
  bool cache_loaded_ NETCUT_GUARDED_BY(cache_mutex_) = false;
  int cache_rows_skipped_ NETCUT_GUARDED_BY(cache_mutex_) = 0;
};

}  // namespace netcut::core
