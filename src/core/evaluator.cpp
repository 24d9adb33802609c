#include "core/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/cascade.hpp"
#include "core/pretrained_cache.hpp"
#include "ml/metrics.hpp"
#include "nn/network.hpp"
#include "nn/pooling.hpp"
#include "tensor/backend.hpp"
#include "util/atomic_file.hpp"

namespace netcut::core {

namespace {

constexpr double kHeadLearningRate = 1e-3;
constexpr int kCalibrationImages = 25;  // BN re-calibration subset of the train split

/// Every streamed value's position, type and formatting is part of the memo
/// key: moving one orphans every memoized accuracy
/// (WeightCache.DefaultCacheKeysArePinned pins the default key).
std::uint64_t hash_config(const EvalConfig& c, const data::HandsConfig& d) {
  constexpr HeadConfig head;
  std::ostringstream os;
  os << c.resolution << '|' << c.seed << '|' << head.classes << '|' << head.hidden1 << '|'
     << head.hidden2 << '|' << c.epochs << '|' << kHeadLearningRate << '|'
     << kCalibrationImages << '|' << pretrained_config_hash(c.pretrained) << '|'
     << d.train_count << '|' << d.test_count << '|' << d.seed << '|' << d.resolution;
  return util::derive_seed(0xE7A1uLL, os.str());
}

}  // namespace

TrnEvaluator::TrnEvaluator(const data::HandsDataset& dataset, EvalConfig config)
    : dataset_(dataset), config_(std::move(config)) {
  if (dataset_.config().resolution != config_.resolution)
    throw std::invalid_argument("TrnEvaluator: dataset/evaluator resolution mismatch");
  config_hash_ = hash_config(config_, dataset_.config());
}

TrnEvaluator::NetState& TrnEvaluator::state(zoo::NetId base) {
  // Held across materialization: concurrent callers for the same base block
  // until the one extraction pass finishes, then share the features
  // (std::map references stay valid across later insertions).
  util::MutexLock lock(states_mutex_);
  auto it = states_.find(base);
  if (it != states_.end()) return it->second;

  NetState st;
  nn::Network net(pretrained_trunk(base, config_.resolution, config_.pretrained,
                                   config_.weight_cache_dir));

  // BatchNorm re-calibration on a train subset at the evaluation resolution.
  {
    const auto calib = dataset_.calibration_set(
        static_cast<double>(kCalibrationImages) / static_cast<double>(dataset_.train().size()),
        config_.seed);
    std::vector<const tensor::Tensor*> images;
    for (const data::Sample* s : calib) images.push_back(&s->image);
    data::calibrate_batchnorm(net, images);
  }

  st.cutpoints = iterative_cutpoints(net.graph());

  // Batched passes over the train then test images, harvesting GAP
  // features at every cut site. Each batch runs one GEMM per convolution
  // and spreads its lanes over the pool; every kernel is thread-count
  // invariant and a batched collect is bitwise a loop of single-image ones,
  // so the features depend on neither the thread count nor the batch size.
  // A batch's activations are reduced to features before the next runs.
  std::vector<const tensor::Tensor*> images;
  for (const data::Sample& s : dataset_.train()) images.push_back(&s.image);
  for (const data::Sample& s : dataset_.test()) images.push_back(&s.image);
  const std::size_t train_count = dataset_.train().size();
  for (int cp : st.cutpoints) {
    st.train_features[cp].reserve(train_count);
    st.test_features[cp].reserve(images.size() - train_count);
  }
  nn::GlobalAvgPool gap;
  const std::size_t lanes = nn::Network::lanes_for(images.size());
  for (std::size_t first = 0; first < images.size(); first += lanes) {
    const std::size_t last = std::min(images.size(), first + lanes);
    const std::vector<std::vector<tensor::Tensor>> acts = net.forward_collect(
        {images.begin() + static_cast<std::ptrdiff_t>(first),
         images.begin() + static_cast<std::ptrdiff_t>(last)},
        st.cutpoints);
    for (std::size_t i = first; i < last; ++i) {
      auto& into = i < train_count ? st.train_features : st.test_features;
      for (std::size_t k = 0; k < st.cutpoints.size(); ++k)
        into[st.cutpoints[k]].push_back(gap.forward({&acts[i - first][k]}, false));
    }
  }

  return states_.emplace(base, std::move(st)).first->second;
}

const std::vector<int>& TrnEvaluator::cutpoints(zoo::NetId base) {
  // Graph structure (and so node ids) is resolution-independent, so this
  // must not trigger the expensive feature-extraction path.
  util::MutexLock lock(states_mutex_);
  auto it = structure_.find(base);
  if (it == structure_.end()) {
    const nn::Graph trunk = zoo::build_trunk(base, config_.resolution);
    it = structure_.emplace(base, iterative_cutpoints(trunk)).first;
  }
  return it->second;
}

int TrnEvaluator::full_cut(zoo::NetId base) { return cutpoints(base).back(); }

std::string TrnEvaluator::seed_key(zoo::NetId base, int cut_node) const {
  return zoo::net_name(base) + "|" + std::to_string(cut_node) + "|" +
         std::to_string(config_hash_);
}

std::string TrnEvaluator::cache_key(zoo::NetId base, int cut_node) const {
  return seed_key(base, cut_node) + "|" + tensor::backend_name(tensor::active_backend_kind());
}

namespace {

std::vector<std::string> split_fields(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t end = line.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

bool parse_full_double(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0' && std::isfinite(out);
}

std::string cache_row(const std::string& key, const AccuracyResult& r) {
  std::ostringstream os;
  os.precision(17);  // lossless double round trip
  os << key << ',' << r.angular_similarity << ',' << r.top1;
  std::string row = os.str();
  std::ostringstream ck;
  ck << std::hex << util::fnv1a64(row);
  return row + ',' + ck.str();
}

/// Accepts a checksummed 4-field row (key,ang,top1,fnv1a64); rejects torn
/// lines, non-numeric fields, checksum mismatches and the pre-checksum
/// 3-field form.
bool parse_cache_row(const std::string& line, std::string& key, AccuracyResult& r) {
  const auto fields = split_fields(line, ',');
  if (fields.size() != 4) return false;
  if (fields[0].empty()) return false;
  if (!parse_full_double(fields[1], r.angular_similarity)) return false;
  if (!parse_full_double(fields[2], r.top1)) return false;
  const std::string prefix = fields[0] + ',' + fields[1] + ',' + fields[2];
  std::ostringstream ck;
  ck << std::hex << util::fnv1a64(prefix);
  if (ck.str() != fields[3]) return false;
  key = fields[0];
  return true;
}

}  // namespace

void TrnEvaluator::load_cache() {
  cache_loaded_ = true;
  cache_rows_skipped_ = 0;
  if (config_.cache_path.empty()) return;
  std::ifstream in(config_.cache_path);
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;  // header / comment lines
    std::string key;
    AccuracyResult r;
    if (parse_cache_row(line, key, r))
      cache_[key] = r;
    else
      ++cache_rows_skipped_;
  }
  in.close();
  if (cache_rows_skipped_ == 0) return;

  // Heal: a crash mid-append (or bit rot) left torn/corrupt rows behind.
  // Skip them loudly and atomically rewrite the surviving rows so the
  // damage does not persist into the next run.
  std::fprintf(stderr,
               "[netcut] WARNING: accuracy cache %s: skipped %d malformed row(s), kept %zu; "
               "healing file\n",
               config_.cache_path.c_str(), cache_rows_skipped_, cache_.size());
  std::ostringstream healed;
  healed << "# netcut-accuracy-cache v2\n";
  for (const auto& [key, r] : cache_) healed << cache_row(key, r) << '\n';
  try {
    util::atomic_write_text(config_.cache_path, healed.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[netcut] WARNING: could not heal accuracy cache: %s\n", e.what());
  }
}

void TrnEvaluator::append_cache(const std::string& key, const AccuracyResult& r) {
  if (config_.cache_path.empty()) return;
  std::ofstream out(config_.cache_path, std::ios::app);
  out << cache_row(key, r) << '\n';
}

bool TrnEvaluator::memoized(zoo::NetId base, int cut_node) {
  const std::string key = cache_key(base, cut_node);
  util::MutexLock lock(cache_mutex_);
  if (!cache_loaded_) load_cache();
  return cache_.count(key) > 0;
}

AccuracyResult TrnEvaluator::accuracy(zoo::NetId base, int cut_node) {
  const std::string key = cache_key(base, cut_node);
  {
    util::MutexLock lock(cache_mutex_);
    if (!cache_loaded_) load_cache();
    if (auto it = cache_.find(key); it != cache_.end()) return it->second;
  }

  const std::vector<tensor::Tensor> predictions = retrained_predictions(base, cut_node);
  std::vector<tensor::Tensor> test_y;
  test_y.reserve(dataset_.test().size());
  for (const data::Sample& s : dataset_.test()) test_y.push_back(s.label);
  AccuracyResult r;
  r.angular_similarity = ml::mean_angular_similarity(predictions, test_y);
  r.top1 = ml::top1_agreement(predictions, test_y);
  {
    util::MutexLock lock(cache_mutex_);
    cache_[key] = r;
    append_cache(key, r);
  }
  return r;
}

std::vector<tensor::Tensor> TrnEvaluator::retrained_predictions(zoo::NetId base,
                                                                int cut_node) {
  NetState& st = state(base);
  const auto train_it = st.train_features.find(cut_node);
  if (train_it == st.train_features.end())
    throw std::invalid_argument("TrnEvaluator: node " + std::to_string(cut_node) +
                                " is not a legal cut site for " + zoo::net_name(base));
  std::vector<tensor::Tensor> train_y;
  train_y.reserve(dataset_.train().size());
  for (const data::Sample& s : dataset_.train()) train_y.push_back(s.label);

  const TransferHead head(train_it->second, train_y, HeadConfig{}, config_.epochs,
                          kHeadLearningRate,
                          util::derive_seed(config_.seed, seed_key(base, cut_node)));
  const std::vector<tensor::Tensor>& test_x = st.test_features.at(cut_node);
  std::vector<tensor::Tensor> predictions;
  predictions.reserve(test_x.size());
  for (const tensor::Tensor& x : test_x) predictions.push_back(head.predict(x));
  return predictions;
}

const PerImageEval& TrnEvaluator::per_image(zoo::NetId base, int cut_node) {
  const auto key = std::make_pair(base, cut_node);
  {
    util::MutexLock lock(cache_mutex_);
    if (auto it = per_image_.find(key); it != per_image_.end()) return it->second;
  }

  const std::vector<tensor::Tensor> predictions = retrained_predictions(base, cut_node);

  PerImageEval e;
  e.margin.reserve(predictions.size());
  e.angular.reserve(predictions.size());
  e.correct.reserve(predictions.size());
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const tensor::Tensor& p = predictions[i];
    const tensor::Tensor& label = dataset_.test()[i].label;
    e.margin.push_back(softmax_margin(p));
    e.angular.push_back(ml::angular_similarity(p, label));
    e.correct.push_back(ml::top1_agreement({p}, {label}) > 0.5 ? 1 : 0);
  }

  util::MutexLock lock(cache_mutex_);
  // emplace keeps the first computation if two threads raced; both computed
  // identical values anyway (same seed, same op order).
  return per_image_.emplace(key, std::move(e)).first->second;
}

}  // namespace netcut::core
