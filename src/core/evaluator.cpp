#include "core/evaluator.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/pretrained_cache.hpp"
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"

#include "ml/metrics.hpp"
#include "ml/model_selection.hpp"
#include "util/thread_pool.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "tensor/backend.hpp"

namespace netcut::core {

namespace {

/// Channel means of a CHW activation — the GlobalAvgPool feature vector.
tensor::Tensor gap(const tensor::Tensor& act) {
  const int C = act.shape()[0];
  const std::size_t hw =
      static_cast<std::size_t>(act.shape()[1]) * static_cast<std::size_t>(act.shape()[2]);
  tensor::Tensor out(tensor::Shape::vec(C));
  for (int c = 0; c < C; ++c) {
    const float* chan = act.data() + static_cast<std::size_t>(c) * hw;
    double s = 0.0;
    for (std::size_t i = 0; i < hw; ++i) s += chan[i];
    out[c] = static_cast<float>(s / static_cast<double>(hw));
  }
  return out;
}

std::uint64_t hash_config(const EvalConfig& c, const data::HandsConfig& d) {
  std::ostringstream os;
  os << c.resolution << '|' << c.seed << '|' << c.head.classes << '|' << c.head.hidden1 << '|'
     << c.head.hidden2 << '|' << c.epochs << '|' << c.learning_rate << '|'
     << c.calibration_images << '|' << pretrained_config_hash(c.pretrained) << '|'
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
  nn::Graph trunk = pretrained_trunk(base, config_.resolution, config_.pretrained,
                                     config_.weight_cache_dir);
  st.net = std::make_unique<nn::Network>(std::move(trunk));

  // Optional BatchNorm re-calibration on a train subset (0 keeps the
  // statistics the pretrained trunk shipped with).
  if (config_.calibration_images > 0) {
    const auto calib = dataset_.calibration_set(
        static_cast<double>(config_.calibration_images) /
            static_cast<double>(dataset_.train().size()),
        config_.seed);
    std::vector<const tensor::Tensor*> images;
    for (const data::Sample* s : calib) images.push_back(&s->image);
    data::calibrate_batchnorm(*st.net, images);
  }

  st.cutpoints = iterative_cutpoints(st.net->graph());

  // One pass per image, harvesting GAP features at every cut site. Images
  // are independent, so the pass is partitioned across the pool; each chunk
  // runs on a private clone of the frozen trunk (Network::forward_collect
  // keeps per-instance activation state) and writes features by image index,
  // which makes the result independent of the thread count.
  auto harvest = [&](const std::vector<data::Sample>& samples,
                     std::map<int, std::vector<tensor::Tensor>>& into) {
    const std::int64_t n = static_cast<std::int64_t>(samples.size());
    for (int cp : st.cutpoints) into[cp].assign(static_cast<std::size_t>(n), tensor::Tensor());
    const int threads = util::num_threads();
    const bool parallel = threads > 1 && !util::ThreadPool::in_worker() && n > 1;
    const std::int64_t grain = parallel ? (n + threads - 1) / threads : n;
    util::parallel_for(0, n, grain, [&](std::int64_t b, std::int64_t e) {
      nn::Network* net = st.net.get();
      std::unique_ptr<nn::Network> local;
      if (parallel) {
        local = std::make_unique<nn::Network>(st.net->graph());
        net = local.get();
      }
      for (std::int64_t i = b; i < e; ++i) {
        const std::vector<tensor::Tensor> acts = net->forward_collect(
            samples[static_cast<std::size_t>(i)].image, st.cutpoints, /*train=*/false);
        for (std::size_t k = 0; k < st.cutpoints.size(); ++k)
          into[st.cutpoints[k]][static_cast<std::size_t>(i)] = gap(acts[k]);
      }
    });
  };
  harvest(dataset_.train(), st.train_features);
  harvest(dataset_.test(), st.test_features);

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

  NetState& st = state(base);
  const auto train_it = st.train_features.find(cut_node);
  if (train_it == st.train_features.end())
    throw std::invalid_argument("TrnEvaluator::accuracy: node " + std::to_string(cut_node) +
                                " is not a legal cut site for " + zoo::net_name(base));
  const auto& train_x = train_it->second;
  const auto& test_x = st.test_features.at(cut_node);

  std::vector<tensor::Tensor> train_y, test_y;
  train_y.reserve(dataset_.train().size());
  for (const data::Sample& s : dataset_.train()) train_y.push_back(s.label);
  test_y.reserve(dataset_.test().size());
  for (const data::Sample& s : dataset_.test()) test_y.push_back(s.label);

  const std::uint64_t seed = util::derive_seed(config_.seed, seed_key(base, cut_node));
  const AccuracyResult r = train_head_on_features(train_x, train_y, test_x, test_y, seed);
  {
    util::MutexLock lock(cache_mutex_);
    cache_[key] = r;
    append_cache(key, r);
  }
  return r;
}

std::vector<tensor::Tensor> TrnEvaluator::head_predictions(
    const std::vector<tensor::Tensor>& train_x, const std::vector<tensor::Tensor>& train_y,
    const std::vector<tensor::Tensor>& test_x, std::uint64_t seed) const {
  const int features = static_cast<int>(train_x[0].numel());

  // Standardize features (fit on train) for stable head optimization.
  std::vector<double> mean(static_cast<std::size_t>(features), 0.0);
  std::vector<double> stdev(static_cast<std::size_t>(features), 0.0);
  for (const tensor::Tensor& x : train_x)
    for (int k = 0; k < features; ++k) mean[static_cast<std::size_t>(k)] += x[k];
  for (int k = 0; k < features; ++k)
    mean[static_cast<std::size_t>(k)] /= static_cast<double>(train_x.size());
  for (const tensor::Tensor& x : train_x)
    for (int k = 0; k < features; ++k) {
      const double d = x[k] - mean[static_cast<std::size_t>(k)];
      stdev[static_cast<std::size_t>(k)] += d * d;
    }
  for (int k = 0; k < features; ++k) {
    stdev[static_cast<std::size_t>(k)] =
        std::sqrt(stdev[static_cast<std::size_t>(k)] / static_cast<double>(train_x.size()));
    if (stdev[static_cast<std::size_t>(k)] < 1e-8) stdev[static_cast<std::size_t>(k)] = 1.0;
  }
  auto standardize = [&](const tensor::Tensor& x) {
    tensor::Tensor out(tensor::Shape::vec(features));
    for (int k = 0; k < features; ++k)
      out[k] = static_cast<float>((x[k] - mean[static_cast<std::size_t>(k)]) /
                                  stdev[static_cast<std::size_t>(k)]);
    return out;
  };

  // Head as a logits network (softmax applied at evaluation).
  util::Rng rng(seed);
  nn::Graph g;
  int x = g.add_input(tensor::Shape::vec(features));
  auto fc1 = std::make_unique<nn::Dense>(features, config_.head.hidden1);
  nn::xavier_init_dense(fc1->weight(), rng);
  x = g.add(std::move(fc1), {x}, "fc1");
  x = g.add(std::make_unique<nn::ReLU>(false), {x}, "relu1");
  auto fc2 = std::make_unique<nn::Dense>(config_.head.hidden1, config_.head.hidden2);
  nn::xavier_init_dense(fc2->weight(), rng);
  x = g.add(std::move(fc2), {x}, "fc2");
  x = g.add(std::make_unique<nn::ReLU>(false), {x}, "relu2");
  auto fc3 = std::make_unique<nn::Dense>(config_.head.hidden2, config_.head.classes);
  nn::xavier_init_dense(fc3->weight(), rng);
  g.add(std::move(fc3), {x}, "logits");
  nn::Network head(std::move(g));

  nn::Adam opt(config_.learning_rate);
  opt.bind(head.params(), head.grads());

  std::vector<tensor::Tensor> std_train;
  std_train.reserve(train_x.size());
  for (const tensor::Tensor& t : train_x) std_train.push_back(standardize(t));

  const int n = static_cast<int>(std_train.size());
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const std::vector<int> order = rng.permutation(n);
    for (int i : order) {
      head.zero_grads();
      const tensor::Tensor logits =
          head.forward(std_train[static_cast<std::size_t>(i)], /*train=*/true);
      const nn::loss::LossResult lr =
          nn::loss::soft_cross_entropy(logits, train_y[static_cast<std::size_t>(i)]);
      head.backward(lr.grad);
      opt.step();
    }
  }

  std::vector<tensor::Tensor> predictions;
  predictions.reserve(test_x.size());
  for (const tensor::Tensor& t : test_x)
    predictions.push_back(nn::softmax(head.forward(standardize(t), false)));
  return predictions;
}

AccuracyResult TrnEvaluator::train_head_on_features(
    const std::vector<tensor::Tensor>& train_x, const std::vector<tensor::Tensor>& train_y,
    const std::vector<tensor::Tensor>& test_x, const std::vector<tensor::Tensor>& test_y,
    std::uint64_t seed) const {
  if (train_x.empty() || train_x.size() != train_y.size() || test_x.size() != test_y.size())
    throw std::invalid_argument("train_head_on_features: bad dataset");
  const std::vector<tensor::Tensor> predictions =
      head_predictions(train_x, train_y, test_x, seed);

  AccuracyResult r;
  r.angular_similarity = ml::mean_angular_similarity(predictions, test_y);
  r.top1 = ml::top1_agreement(predictions, test_y);
  return r;
}

const PerImageEval& TrnEvaluator::per_image(zoo::NetId base, int cut_node) {
  const auto key = std::make_pair(base, cut_node);
  {
    util::MutexLock lock(cache_mutex_);
    if (auto it = per_image_.find(key); it != per_image_.end()) return it->second;
  }

  NetState& st = state(base);
  const auto train_it = st.train_features.find(cut_node);
  if (train_it == st.train_features.end())
    throw std::invalid_argument("TrnEvaluator::per_image: node " + std::to_string(cut_node) +
                                " is not a legal cut site for " + zoo::net_name(base));
  const auto& train_x = train_it->second;
  const auto& test_x = st.test_features.at(cut_node);

  std::vector<tensor::Tensor> train_y;
  train_y.reserve(dataset_.train().size());
  for (const data::Sample& s : dataset_.train()) train_y.push_back(s.label);

  // Same seed derivation as accuracy(): the retrained head is the same head.
  const std::uint64_t seed = util::derive_seed(config_.seed, seed_key(base, cut_node));
  const std::vector<tensor::Tensor> predictions =
      head_predictions(train_x, train_y, test_x, seed);

  PerImageEval e;
  e.margin.reserve(predictions.size());
  e.angular.reserve(predictions.size());
  e.correct.reserve(predictions.size());
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const tensor::Tensor& p = predictions[i];
    const tensor::Tensor& label = dataset_.test()[i].label;
    float top1 = 0.0f, top2 = 0.0f;
    for (int k = 0; k < static_cast<int>(p.numel()); ++k) {
      if (p[k] > top1) {
        top2 = top1;
        top1 = p[k];
      } else if (p[k] > top2) {
        top2 = p[k];
      }
    }
    e.margin.push_back(static_cast<double>(top1) - static_cast<double>(top2));
    e.angular.push_back(ml::angular_similarity(p, label));
    e.correct.push_back(ml::top1_agreement({p}, {label}) > 0.5 ? 1 : 0);
  }

  util::MutexLock lock(cache_mutex_);
  // emplace keeps the first computation if two threads raced; both computed
  // identical values anyway (same seed, same op order).
  return per_image_.emplace(key, std::move(e)).first->second;
}

}  // namespace netcut::core
