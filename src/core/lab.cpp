#include "core/lab.hpp"

namespace netcut::core {

LatencyLab::LatencyLab(LabConfig config)
    : config_(std::move(config)),
      device_(config_.device),
      measurer_(device_, config_.measure),
      profiler_(device_, measurer_, config_.profiler),
      trainer_(config_.trainer) {}

LatencyLab::NetState& LatencyLab::state(zoo::NetId base) {
  auto it = states_.find(base);
  if (it != states_.end()) return it->second;
  NetState st;
  st.trunk =
      std::make_unique<nn::Graph>(zoo::build_trunk(base, zoo::native_resolution(base)));
  st.blockwise = blockwise_cutpoints(*st.trunk);
  st.iterative = iterative_cutpoints(*st.trunk);
  return states_.emplace(base, std::move(st)).first->second;
}

const std::vector<int>& LatencyLab::blockwise(zoo::NetId base) {
  return state(base).blockwise;
}

const std::vector<int>& LatencyLab::iterative(zoo::NetId base) {
  return state(base).iterative;
}

int LatencyLab::full_cut(zoo::NetId base) { return state(base).trunk->output_node(); }

nn::Graph LatencyLab::build_native_trn(zoo::NetId base, int cut_node) {
  // Head weight values do not affect analytic latency; a fixed seed keeps
  // graph construction deterministic.
  util::Rng rng(util::derive_seed(0xBEEF, "lab/head"));
  return build_trn(*state(base).trunk, cut_node, config_.head, rng);
}

double LatencyLab::measured_from(zoo::NetId base, int cut_node, int resume) {
  NetState& st = state(base);
  const auto key = std::make_pair(cut_node, resume);
  if (auto it = st.measured.find(key); it != st.measured.end()) return it->second;
  const nn::Graph trn = build_native_trn(base, cut_node);
  const double ms =
      measurer_.measure_network(trn, config_.precision, config_.fuse, resume).mean_ms;
  st.measured[key] = ms;
  return ms;
}

double LatencyLab::true_from(zoo::NetId base, int cut_node, int resume) {
  NetState& st = state(base);
  const auto key = std::make_pair(cut_node, resume);
  if (auto it = st.true_latency.find(key); it != st.true_latency.end()) return it->second;
  const nn::Graph trn = build_native_trn(base, cut_node);
  const double ms =
      device_.network_latency_ms(trn, config_.precision, config_.fuse, 1, resume);
  st.true_latency[key] = ms;
  return ms;
}

double LatencyLab::measured_ms(zoo::NetId base, int cut_node) {
  return measured_from(base, cut_node, 0);
}

double LatencyLab::true_ms(zoo::NetId base, int cut_node) { return true_from(base, cut_node, 0); }

double LatencyLab::measured_stage2_ms(zoo::NetId base, int shallow_cut, int deep_cut) {
  return measured_from(base, deep_cut, resume_node(*state(base).trunk, shallow_cut));
}

double LatencyLab::true_stage2_ms(zoo::NetId base, int shallow_cut, int deep_cut) {
  return true_from(base, deep_cut, resume_node(*state(base).trunk, shallow_cut));
}

const hw::LatencyTable& LatencyLab::profile(zoo::NetId base) {
  NetState& st = state(base);
  if (!st.table) {
    const nn::Graph full = build_native_trn(base, full_cut(base));
    st.table = std::make_unique<hw::LatencyTable>(
        profiler_.profile(full, zoo::net_name(base), config_.precision, config_.fuse));
  }
  return *st.table;
}

int LatencyLab::trunk_last_node(zoo::NetId base) { return state(base).trunk->output_node(); }

double LatencyLab::training_hours(zoo::NetId base, int cut_node) {
  const nn::Graph trn = build_native_trn(base, cut_node);
  return trainer_.training_hours(trn);
}

std::string LatencyLab::name(zoo::NetId base, int cut_node) {
  return trn_name(zoo::net_name(base), *state(base).trunk, cut_node);
}

int LatencyLab::layers_removed(zoo::NetId base, int cut_node) {
  return core::layers_removed(*state(base).trunk, cut_node);
}

int LatencyLab::layers_remaining(zoo::NetId base, int cut_node) {
  return core::layers_remaining(*state(base).trunk, cut_node);
}

}  // namespace netcut::core
