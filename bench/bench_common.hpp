// Shared experiment configuration for the fig* harnesses. Every bench uses
// the same lab, dataset, and evaluator settings so results compose: the
// accuracy memo cache (netcut_accuracy_cache.csv in the working directory)
// is shared, and the first bench to need a number pays for it.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/estimator.hpp"
#include "core/evaluator.hpp"
#include "core/explorer.hpp"
#include "core/lab.hpp"
#include "core/netcut.hpp"
#include "core/pareto.hpp"
#include "tensor/backend.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace netcut::bench {

inline constexpr double kDeadlineMs = 0.9;  // the robotic hand's budget

/// NETCUT_FAST=1 shrinks the experiment (fewer images/epochs) for smoke
/// runs; default is the full experiment scale.
inline bool fast_mode() {
  const char* env = std::getenv("NETCUT_FAST");
  return env != nullptr && env[0] == '1';
}

inline data::HandsConfig dataset_config() {
  data::HandsConfig c;
  c.resolution = 24;  // matches the pretraining resolution (DESIGN.md)
  c.train_count = fast_mode() ? 120 : 300;
  c.test_count = fast_mode() ? 60 : 120;
  c.seed = 42;
  return c;
}

inline core::EvalConfig eval_config() {
  core::EvalConfig c;
  c.resolution = 24;
  c.epochs = fast_mode() ? 8 : 16;
  c.cache_path = "netcut_accuracy_cache.csv";
  if (fast_mode()) {
    c.pretrained.source_images = 100;
    c.pretrained.epochs = 8;
  }
  return c;
}

inline core::LabConfig lab_config() {
  return core::LabConfig{};  // int8 + fusion, Xavier-sim defaults
}

/// All blockwise TRN latency samples (for estimator training), including
/// the full networks.
inline std::vector<core::LatencySample> collect_latency_samples(core::LatencyLab& lab) {
  std::vector<core::LatencySample> samples;
  for (zoo::NetId net : zoo::all_nets()) {
    std::vector<int> cuts = lab.blockwise(net);
    // blockwise() already ends at the trunk output (== full cut).
    for (int cut : cuts) {
      core::LatencySample s;
      s.base = net;
      s.cut_node = cut;
      s.features = core::compute_trn_features(lab, net, cut);
      s.measured_ms = lab.measured_ms(net, cut);
      samples.push_back(std::move(s));
    }
  }
  return samples;
}

/// Deterministic 20/80 train/test split of the latency samples (the
/// paper's protocol: tune on the small split, test on the remaining 80%).
inline void split_samples(const std::vector<core::LatencySample>& all,
                          std::vector<core::LatencySample>& train,
                          std::vector<core::LatencySample>& test) {
  for (std::size_t i = 0; i < all.size(); ++i)
    (i % 5 == 2 ? train : test).push_back(all[i]);
}

/// "model name" of the first /proc/cpuinfo entry.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) return line.substr(colon + 2);
    }
  return "unknown";
}

/// Short git sha of the source tree this binary was built from, with
/// "-dirty" when tracked files differ from it; "unknown" outside git.
inline std::string git_revision() {
  const auto run = [](const std::string& cmd) {
    std::string out;
    if (FILE* p = popen(cmd.c_str(), "r")) {
      char buf[128];
      while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
      if (pclose(p) != 0) return std::string();
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) out.pop_back();
    return out;
  };
  const std::string git = "git -C \"" NETCUT_SOURCE_DIR "\" ";
  const std::string sha = run(git + "rev-parse --short HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  const bool dirty = !run(git + "status --porcelain --untracked-files=no 2>/dev/null").empty();
  return dirty ? sha + "-dirty" : sha;
}

/// The `host` object a BENCH_*.json is stamped with: CPU model, nproc,
/// simd and int8 ISA, kernel backend, pool size and git sha.
inline std::string host_json() {
  std::ostringstream out;
  out << "{\"cpu\": \"" << cpu_model() << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"simd_isa\": \"" << tensor::simd_isa() << "\", \"int8_isa\": \""
      << tensor::int8_isa() << "\", \"backend\": \""
      << tensor::backend_name(tensor::active_backend_kind())
      << "\", \"threads\": " << util::num_threads() << ", \"git\": \"" << git_revision()
      << "\"}";
  return out.str();
}

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n\n", title.c_str());
}

}  // namespace netcut::bench
