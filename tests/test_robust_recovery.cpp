// Crash-safety and graceful-degradation checks: checked atomic files,
// accuracy-cache healing, weight-cache quarantine, sweep resume from the
// accuracy memo, and the deadline watchdog's Pareto fallback.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/classifier.hpp"
#include "app/control_loop.hpp"
#include "core/evaluator.hpp"
#include "core/explorer.hpp"
#include "core/lab.hpp"
#include "core/pretrained_cache.hpp"
#include "nn/serialize.hpp"
#include "tensor/backend.hpp"
#include "util/atomic_file.hpp"

namespace netcut {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

data::HandsConfig tiny_data() {
  data::HandsConfig c;
  c.resolution = 24;
  c.train_count = 60;
  c.test_count = 30;
  return c;
}

data::PretrainedConfig tiny_pretrain() {
  data::PretrainedConfig c;
  c.source_images = 80;
  c.epochs = 6;
  return c;
}

core::EvalConfig tiny_eval(const std::string& cache_path, const std::string& weight_dir) {
  core::EvalConfig c;
  c.resolution = 24;
  c.epochs = 6;
  c.pretrained = tiny_pretrain();
  c.cache_path = cache_path;
  c.weight_cache_dir = weight_dir;
  return c;
}

// ---------------------------------------------------------------- atomic file

TEST(AtomicFile, CheckedRoundTripIncludingBinaryPayload) {
  const std::string dir = fresh_dir("atomic_roundtrip");
  const std::string path = dir + "/blob.bin";
  std::string payload = "hello\0world\n\xff\x01 binary";
  payload.resize(22);
  util::atomic_write_checked(path, payload, 0xABCD1234u, 3);
  const auto back = util::read_checked(path, 0xABCD1234u, 3);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  EXPECT_FALSE(util::read_checked(dir + "/missing.bin", 0xABCD1234u, 3).has_value());
}

TEST(AtomicFile, CorruptionAndTruncationAreDetected) {
  const std::string dir = fresh_dir("atomic_corrupt");
  const std::string path = dir + "/blob.bin";
  util::atomic_write_checked(path, std::string(256, 'x'), 0x11u, 1);

  std::string raw = slurp(path);
  raw[raw.size() / 2] ^= 0x20;  // flip one payload bit
  std::ofstream(path, std::ios::binary | std::ios::trunc) << raw;
  EXPECT_THROW(util::read_checked(path, 0x11u, 1), util::CorruptFileError);

  util::atomic_write_checked(path, std::string(256, 'x'), 0x11u, 1);
  raw = slurp(path);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << raw.substr(0, raw.size() - 40);
  EXPECT_THROW(util::read_checked(path, 0x11u, 1), util::CorruptFileError);
}

TEST(AtomicFile, QuarantineMovesAsideWithoutClobbering) {
  const std::string dir = fresh_dir("atomic_quarantine");
  const std::string path = dir + "/bad.bin";
  util::atomic_write_text(path, "first");
  const std::string q1 = util::quarantine_file(path);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(q1));
  util::atomic_write_text(path, "second");
  const std::string q2 = util::quarantine_file(path);
  EXPECT_NE(q1, q2);  // the first quarantined copy is preserved
  EXPECT_TRUE(fs::exists(q1));
  EXPECT_TRUE(fs::exists(q2));
}

// ------------------------------------------------------------- accuracy cache

TEST(AccuracyCache, MalformedRowsSkippedCountedAndHealed) {
  const std::string dir = fresh_dir("acc_cache");
  const std::string cache = dir + "/cache.csv";
  const data::HandsDataset dataset(tiny_data());
  const zoo::NetId base = zoo::NetId::kMobileNetV1_025;

  core::TrnEvaluator probe(dataset, tiny_eval(cache, ""));
  const int cut = probe.full_cut(base);
  const std::string key = zoo::net_name(base) + "|" + std::to_string(cut) + "|" +
                          std::to_string(probe.config_hash()) + "|" +
                          tensor::backend_name(tensor::active_backend_kind());

  // A valid checksummed row, a torn append, binary garbage, and a
  // pre-checksum 3-field row (no longer read).
  {
    const std::string row = key + ",0.875,0.65";
    std::ostringstream ck;
    ck << std::hex << util::fnv1a64(row);
    std::ofstream out(cache);
    out << row << ',' << ck.str() << '\n';
    out << "NetX|3|123,0.4\n";
    out << key << ",0.9,not_a_number\n";
    out << key << ",0.5,0.25\n";
  }

  core::TrnEvaluator eval(dataset, tiny_eval(cache, ""));
  testing::internal::CaptureStderr();
  const core::AccuracyResult r = eval.accuracy(base, cut);  // pure cache hit, no training
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_DOUBLE_EQ(r.angular_similarity, 0.875);
  EXPECT_DOUBLE_EQ(r.top1, 0.65);
  EXPECT_EQ(eval.cache_rows_skipped(), 3);
  EXPECT_NE(err.find("malformed"), std::string::npos);

  // The healed file parses cleanly and still carries the surviving row.
  core::TrnEvaluator again(dataset, tiny_eval(cache, ""));
  const core::AccuracyResult r2 = again.accuracy(base, cut);
  EXPECT_EQ(again.cache_rows_skipped(), 0);
  EXPECT_DOUBLE_EQ(r2.angular_similarity, 0.875);
}

// --------------------------------------------------------------- weight cache

void graph_params(nn::Graph& g, std::vector<float>& out) {
  out.clear();
  for (int id = 1; id < g.node_count(); ++id)
    for (const tensor::Tensor* t : g.node(id).layer->state())
      out.insert(out.end(), t->data(), t->data() + t->numel());
}

TEST(WeightCache, CorruptFileQuarantinedAndRetrainedDeterministically) {
  const std::string dir = fresh_dir("weight_cache");
  const zoo::NetId net = zoo::NetId::kMobileNetV1_025;
  const data::PretrainedConfig cfg = tiny_pretrain();

  nn::Graph first = core::pretrained_trunk(net, 24, cfg, dir);
  const std::string path = core::pretrained_cache_file(net, cfg, dir);
  ASSERT_TRUE(fs::exists(path));

  // Clean reload: no retraining, identical parameters.
  nn::Graph reloaded = core::pretrained_trunk(net, 24, cfg, dir);
  std::vector<float> a, b;
  graph_params(first, a);
  graph_params(reloaded, b);
  EXPECT_EQ(a, b);

  // Bit-flip the payload: the checksum catches it, the file is quarantined,
  // and retraining reproduces the exact same weights.
  std::string raw = slurp(path);
  raw[raw.size() / 2] ^= 0x40;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << raw;
  testing::internal::CaptureStderr();
  nn::Graph healed = core::pretrained_trunk(net, 24, cfg, dir);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("quarantined"), std::string::npos);
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
  std::vector<float> c;
  graph_params(healed, c);
  EXPECT_EQ(a, c);

  // A torn write (crash mid-save) is caught the same way.
  std::ofstream(path, std::ios::binary | std::ios::trunc) << slurp(path).substr(0, 100);
  testing::internal::CaptureStderr();
  nn::Graph healed2 = core::pretrained_trunk(net, 24, cfg, dir);
  testing::internal::GetCapturedStderr();
  graph_params(healed2, c);
  EXPECT_EQ(a, c);
}

TEST(WeightCache, HeaderlessFileQuarantinedAndRetrained) {
  const std::string dir = fresh_dir("weight_cache_headerless");
  const zoo::NetId net = zoo::NetId::kMobileNetV1_025;
  const data::PretrainedConfig cfg = tiny_pretrain();

  nn::Graph first = core::pretrained_trunk(net, 24, cfg, dir);
  const std::string path = core::pretrained_cache_file(net, cfg, dir);
  ASSERT_TRUE(fs::exists(path));

  // Overwrite the cache with the bare nn::save_params stream (the format
  // written before the checked container): it is not read, but quarantined,
  // and retraining reproduces the same weights.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    nn::save_params(first, out, path);
  }
  const std::string headerless = slurp(path);
  testing::internal::CaptureStderr();
  nn::Graph healed = core::pretrained_trunk(net, 24, cfg, dir);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("quarantined"), std::string::npos);
  EXPECT_EQ(slurp(path + ".quarantined"), headerless);
  EXPECT_NE(slurp(path), headerless);  // rewritten in the checked container
  std::vector<float> a, b;
  graph_params(first, a);
  graph_params(healed, b);
  EXPECT_EQ(a, b);
}

/// Without a cache directory the pretrained state is copied across in
/// memory (nn::copy_state). At a resolution other than pretraining's it
/// must equal a load of the cached file bit for bit.
TEST(WeightCache, InMemoryCopyEqualsCacheLoad) {
  const std::string dir = fresh_dir("weight_cache_in_memory");
  const zoo::NetId net = zoo::NetId::kMobileNetV1_025;
  const data::PretrainedConfig cfg = tiny_pretrain();
  nn::Graph cached = core::pretrained_trunk(net, 32, cfg, dir);
  nn::Graph in_memory = core::pretrained_trunk(net, 32, cfg, "");
  std::vector<float> a, b;
  graph_params(cached, a);
  graph_params(in_memory, b);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

/// The scalar and simd GEMMs round differently and so pretrain different
/// weights: the cache file depends on the active kernel backend.
TEST(WeightCache, FileNameDependsOnBackend) {
  const tensor::BackendKind entry = tensor::active_backend_kind();
  const data::PretrainedConfig cfg = tiny_pretrain();
  tensor::set_backend(tensor::BackendKind::kScalar);
  const std::string scalar = core::pretrained_cache_file(zoo::NetId::kMobileNetV1_025, cfg, "w");
  tensor::set_backend(tensor::BackendKind::kSimd);
  const std::string simd = core::pretrained_cache_file(zoo::NetId::kMobileNetV1_025, cfg, "w");
  tensor::set_backend(entry);
  EXPECT_NE(scalar, simd);
}

/// Weight-cache file names and accuracy-memo keys hash the configs. Their
/// default values are pinned here: an edit that moves either one would
/// silently re-pretrain every cached trunk and refill every memo.
TEST(WeightCache, DefaultCacheKeysArePinned) {
  const std::string backend = tensor::backend_name(tensor::active_backend_kind());
  EXPECT_EQ(
      core::pretrained_cache_file(zoo::NetId::kMobileNetV1_025, data::PretrainedConfig{}, "w"),
      (fs::path("w") / ("MobileNetV1-0.25_p24_" + backend + "_c907b5f5a2291f3d.weights"))
          .string());
  const data::HandsDataset dataset{data::HandsConfig{}};
  EXPECT_EQ(core::TrnEvaluator(dataset, core::EvalConfig{}).config_hash(),
            5655776248039468452u);
}

// ---------------------------------------------------------- sweep resume

TEST(AccuracyCache, ExplorerResumesFromMemo) {
  const std::string dir = fresh_dir("memo_resume");
  const std::string cache = dir + "/cache.csv";
  const std::string wdir = dir + "/weights";
  const zoo::NetId base = zoo::NetId::kMobileNetV1_025;
  const data::HandsDataset dataset(tiny_data());

  core::LatencyLab lab1;
  core::TrnEvaluator eval1(dataset, tiny_eval(cache, wdir));
  const std::vector<core::Candidate> full =
      core::BlockwiseExplorer(lab1, eval1).explore(base, true);
  ASSERT_GT(full.size(), 3u);

  // Simulate a crash: drop the last two completed rows and leave a torn
  // partial append behind.
  std::vector<std::string> lines;
  {
    std::ifstream in(cache);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), full.size());  // one row per cut
  {
    std::ofstream out(cache, std::ios::trunc);
    for (std::size_t i = 0; i + 2 < lines.size(); ++i) out << lines[i] << '\n';
    out << lines[lines.size() - 2].substr(0, 10);  // torn mid-row, no newline
  }

  core::LatencyLab lab2;
  core::TrnEvaluator eval2(dataset, tiny_eval(cache, wdir));
  testing::internal::CaptureStderr();
  const std::vector<core::Candidate> resumed =
      core::BlockwiseExplorer(lab2, eval2).explore(base, true);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("malformed"), std::string::npos);
  EXPECT_EQ(eval2.cache_rows_skipped(), 1);
  ASSERT_EQ(resumed.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(resumed[i].trn_name, full[i].trn_name);
    EXPECT_DOUBLE_EQ(resumed[i].latency_ms, full[i].latency_ms);
    EXPECT_DOUBLE_EQ(resumed[i].accuracy, full[i].accuracy);
    EXPECT_DOUBLE_EQ(resumed[i].top1, full[i].top1);
  }

  // A third sweep finds every cut in the healed memo: no trunk is loaded or
  // pretrained and no features are harvested, so the deleted weight cache
  // stays empty.
  fs::remove_all(wdir);
  core::LatencyLab lab3;
  core::TrnEvaluator eval3(dataset, tiny_eval(cache, wdir));
  const std::vector<core::Candidate> replayed =
      core::BlockwiseExplorer(lab3, eval3).explore(base, true);
  EXPECT_EQ(eval3.cache_rows_skipped(), 0);
  EXPECT_FALSE(core::pretrained_available(base, tiny_pretrain(), wdir));
  ASSERT_EQ(replayed.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_DOUBLE_EQ(replayed[i].accuracy, full[i].accuracy);
    EXPECT_DOUBLE_EQ(replayed[i].top1, full[i].top1);
  }
}

// ------------------------------------------------------------ deadline watchdog

struct LoopFixture {
  data::HandsDataset dataset{tiny_data()};
  data::EmgGenerator emg_gen;
  app::MlpConfig mlp = [] {
    app::MlpConfig c;
    c.epochs = 15;
    return c;
  }();
  app::EmgClassifier emg{emg_gen, 150, mlp};
  app::VisualClassifier vision;  // initialized in the constructor below

  LoopFixture()
      : vision(zoo::NetId::kMobileNetV1_025,
               zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24).output_node(), dataset,
               mlp, tiny_pretrain()) {}
};

TEST(DeadlineWatchdog, SustainedThrottleTriggersSingleFallback) {
  LoopFixture f;
  // Preferred TRN at 0.85 ms, fallback at 0.30 ms, deadline 0.9 ms. A x2
  // throttle that never cools pushes the preferred network over the
  // deadline on every frame; the fallback still fits.
  const hw::FaultModel hot(hw::parse_fault_spec("throttle=2.0@0~100000,seed=4"));
  std::vector<app::TrnOption> options = {{"slow-accurate", 0.85, &f.vision, {}},
                                         {"fast-fallback", 0.30, &f.vision, {}}};
  app::ControlLoopConfig cfg;
  cfg.episodes = 20;
  app::ControlLoop loop(options, f.emg, f.emg_gen, cfg, app::WatchdogConfig{}, &hot);
  const app::ControlLoopReport report = loop.run(f.dataset);

  ASSERT_EQ(report.switches.size(), 1u);  // one decisive move, no flapping
  EXPECT_EQ(report.switches[0].from, 0u);
  EXPECT_EQ(report.switches[0].to, 1u);
  EXPECT_EQ(report.final_option, 1u);
  EXPECT_GT(report.pre_fallback_miss_rate, 0.9);
  EXPECT_LT(report.post_fallback_miss_rate, 0.05);
  EXPECT_LT(report.post_fallback_miss_rate, report.pre_fallback_miss_rate);
  EXPECT_GT(report.mean_frames_used, 10.0);  // vision still contributes post-fallback
}

TEST(DeadlineWatchdog, RecoversToPreferredOptionAfterTransient) {
  LoopFixture f;
  // The throttle cools with a 100-frame e-folding: the watchdog must fall
  // back while the device is hot and step back up once it cools.
  const hw::FaultModel transient(hw::parse_fault_spec("throttle=2.0@0~100,seed=4"));
  std::vector<app::TrnOption> options = {{"slow-accurate", 0.85, &f.vision, {}},
                                         {"fast-fallback", 0.30, &f.vision, {}}};
  app::ControlLoopConfig cfg;
  cfg.episodes = 40;
  app::ControlLoop loop(options, f.emg, f.emg_gen, cfg, app::WatchdogConfig{}, &transient);
  const app::ControlLoopReport report = loop.run(f.dataset);

  ASSERT_GE(report.switches.size(), 2u);
  EXPECT_EQ(report.switches[0].to, 1u);               // first move is the fallback
  EXPECT_EQ(report.final_option, 0u);                 // ends back on the preferred TRN
  EXPECT_EQ(report.switches.back().to, 0u);
  EXPECT_LE(report.switches.size(), 10u);             // hysteresis bounds the flapping
  EXPECT_LT(report.post_fallback_miss_rate, report.pre_fallback_miss_rate);
}

TEST(DeadlineWatchdog, SingleOptionWithoutFaultsMatchesLegacyLoop) {
  const char* env = std::getenv("NETCUT_FAULTS");
  if (env != nullptr && *env != '\0' && std::string(env) != "off")
    GTEST_SKIP() << "NETCUT_FAULTS active; legacy loop is deliberately faulted";
  LoopFixture f;
  app::ControlLoopConfig cfg;
  cfg.episodes = 10;
  app::ControlLoop legacy({{"", 0.3, &f.vision, {}}}, f.emg, f.emg_gen, cfg);
  std::vector<app::TrnOption> one = {{"only", 0.3, &f.vision, {}}};
  app::ControlLoop adaptive(one, f.emg, f.emg_gen, cfg, app::WatchdogConfig{},
                            &hw::FaultModel::disabled());
  const app::ControlLoopReport a = legacy.run(f.dataset);
  const app::ControlLoopReport b = adaptive.run(f.dataset);
  EXPECT_DOUBLE_EQ(a.mean_angular_similarity, b.mean_angular_similarity);
  EXPECT_DOUBLE_EQ(a.top1_accuracy, b.top1_accuracy);
  EXPECT_DOUBLE_EQ(a.deadline_miss_rate, b.deadline_miss_rate);
  EXPECT_DOUBLE_EQ(a.mean_frames_used, b.mean_frames_used);
  EXPECT_TRUE(b.switches.empty());
  EXPECT_EQ(b.final_option, 0u);
}

}  // namespace
}  // namespace netcut
