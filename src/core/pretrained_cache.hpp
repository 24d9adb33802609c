// Disk-cached pseudo-pretrained trunks. Pretraining a deep trunk costs
// minutes of CPU; the resulting weights depend only on (network, input
// resolution, PretrainedConfig), so they are serialized once per
// configuration and reloaded by every later evaluator / example / bench.
//
// Concurrency contract: these are stateless free functions — no globals,
// no caches in memory — so there is nothing to annotate (see DESIGN.md
// section 13). Cross-process/thread safety of the on-disk cache comes from
// the write protocol instead: writes go to a tmp file and rename into
// place, so two racing writers produce one winner and zero torn files, and
// a concurrent reader sees either the old complete file or the new one.
#pragma once

#include <string>

#include "data/pretrained.hpp"
#include "zoo/zoo.hpp"

namespace netcut::core {

/// Stable hash of the pretraining configuration (cache-key component).
std::uint64_t pretrained_config_hash(const data::PretrainedConfig& config);

/// True when a cached weight file exists for this (network, config).
bool pretrained_available(zoo::NetId net, const data::PretrainedConfig& config,
                          const std::string& cache_dir);

/// Path of the weight-cache file for this (network, config) under
/// `cache_dir` (empty when caching is disabled). Exposed so chaos tests
/// can corrupt the exact file the cache will read back.
std::string pretrained_cache_file(zoo::NetId net, const data::PretrainedConfig& config,
                                  const std::string& cache_dir);

/// Builds the trunk at `resolution` with pretrained weights: loaded from
/// `cache_dir` when a matching file exists, otherwise trained via
/// data::generate_pretrained_weights and saved. An empty cache_dir disables
/// caching (always trains).
///
/// Writes are atomic (tmp + rename) and wrapped in a checksummed container;
/// a cached file that is truncated, bit-flipped, or structurally wrong is
/// quarantined (renamed aside with a warning) and the trunk is retrained —
/// a crash mid-write can never poison later runs. A file without the
/// container (the pre-container raw format) counts as corrupt.
nn::Graph pretrained_trunk(zoo::NetId net, int resolution,
                           const data::PretrainedConfig& config,
                           const std::string& cache_dir);

}  // namespace netcut::core
