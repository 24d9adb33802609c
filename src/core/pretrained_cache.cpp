#include "core/pretrained_cache.hpp"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "nn/serialize.hpp"
#include "nn/verify.hpp"
#include "tensor/backend.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"

namespace netcut::core {

std::uint64_t pretrained_config_hash(const data::PretrainedConfig& c) {
  // Every streamed value's position, type and formatting is part of each
  // weight file's name: moving one re-pretrains every cached trunk
  // (WeightCache.DefaultCacheKeysArePinned pins the default name).
  std::ostringstream os;
  os << "v7|" << c.seed << '|' << data::kSpecializationOnset << '|' << c.source_images << '|'
     << c.epochs << '|' << data::kPretrainLearningRate << '|' << data::kPretrainBatchSize << '|'
     << data::kAuxWeight;
  return util::derive_seed(0x9E77uLL, os.str());
}

namespace {
/// Pretraining runs at a fixed reduced resolution: weights are
/// resolution-independent (graph structure is identical at any input
/// size), and 24x24 keeps the one-time training bill small. BatchNorm
/// statistics are re-calibrated by the consumer at its own resolution.
constexpr int kPretrainResolution = 24;

/// Checked container around the raw nn::save_params payload.
constexpr std::uint32_t kContainerMagic = 0x3243574Eu;  // "NCW2"
constexpr std::uint32_t kContainerVersion = 1;

/// The file name carries the active kernel backend: the scalar and simd
/// GEMMs round differently, so pretraining under each gives different
/// weights. It is not folded into pretrained_config_hash, which also seeds
/// the evaluator's heads (core/evaluator.cpp) and so must not move.
std::string cache_file(zoo::NetId net, const data::PretrainedConfig& config,
                       const std::string& cache_dir) {
  std::ostringstream name;
  name << zoo::net_name(net) << "_p" << kPretrainResolution << "_"
       << tensor::backend_name(tensor::active_backend_kind()) << "_" << std::hex
       << pretrained_config_hash(config) << ".weights";
  return (std::filesystem::path(cache_dir) / name.str()).string();
}

/// Atomic, checksummed weight-cache write.
void save_weights_checked(const nn::Graph& graph, const std::string& path) {
  std::ostringstream payload(std::ios::binary);
  nn::save_params(graph, payload, path);
  util::atomic_write_checked(path, payload.str(), kContainerMagic, kContainerVersion);
}

enum class CacheLoad { kMissing, kLoaded, kQuarantined };

/// Loads a cached weight file into `graph`. Any validation failure — a
/// file without the checked container, bad checksum, truncation,
/// structural mismatch, non-finite params — quarantines the file and
/// reports kQuarantined so the caller retrains.
CacheLoad load_weights_checked(nn::Graph& graph, const std::string& path) {
  try {
    const auto payload = util::read_checked(path, kContainerMagic, kContainerVersion);
    if (!payload) return CacheLoad::kMissing;
    std::istringstream in(std::move(*payload), std::ios::binary);
    nn::load_params(graph, in, path);
    return CacheLoad::kLoaded;
  } catch (const std::exception& e) {
    const std::string moved = util::quarantine_file(path);
    std::fprintf(stderr,
                 "[netcut] WARNING: corrupt weight cache %s (%s); quarantined as %s, "
                 "retraining\n",
                 path.c_str(), e.what(), moved.c_str());
    return CacheLoad::kQuarantined;
  }
}
}  // namespace

std::string pretrained_cache_file(zoo::NetId net, const data::PretrainedConfig& config,
                                  const std::string& cache_dir) {
  if (cache_dir.empty()) return {};
  return cache_file(net, config, cache_dir);
}

bool pretrained_available(zoo::NetId net, const data::PretrainedConfig& config,
                          const std::string& cache_dir) {
  if (cache_dir.empty()) return false;
  return std::filesystem::exists(cache_file(net, config, cache_dir));
}

nn::Graph pretrained_trunk(zoo::NetId net, int resolution,
                           const data::PretrainedConfig& config,
                           const std::string& cache_dir) {
  nn::Graph trunk = zoo::build_trunk(net, resolution);
  data::PretrainedConfig cfg = config;
  cfg.seed = util::derive_seed(cfg.seed, zoo::net_name(net));

  std::string path;
  if (!cache_dir.empty()) {
    std::filesystem::create_directories(cache_dir);
    path = cache_file(net, config, cache_dir);
    if (load_weights_checked(trunk, path) == CacheLoad::kLoaded) return trunk;
    // Missing or quarantined: fall through and retrain.
  }

  nn::Graph train_trunk = resolution == kPretrainResolution
                              ? trunk
                              : zoo::build_trunk(net, kPretrainResolution);
  const data::PretrainReport report = data::generate_pretrained_weights(train_trunk, cfg);
  std::fprintf(stderr,
               "[netcut] pretrained %s @%d: source-task top-1 %.2f (loss %.3f, %d steps)%s\n",
               zoo::net_name(net).c_str(), kPretrainResolution, report.source_accuracy,
               report.final_loss, report.steps,
               path.empty() ? "" : (" -> cached " + path).c_str());
  if (!path.empty()) {
    save_weights_checked(train_trunk, path);
    if (load_weights_checked(trunk, path) != CacheLoad::kLoaded)
      throw std::runtime_error("pretrained_trunk: failed to reload cached weights");
  } else if (resolution != kPretrainResolution) {
    // No cache directory: copy the trained state across in memory.
    nn::copy_state(train_trunk, trunk);
    nn::check_params(trunk, "pretrained_trunk");
  } else {
    trunk = std::move(train_trunk);
  }
  return trunk;
}

}  // namespace netcut::core
