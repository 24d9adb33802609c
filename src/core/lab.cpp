#include "core/lab.hpp"

#include <algorithm>

#include "hw/trainer_model.hpp"
#include "nn/verify.hpp"

namespace netcut::core {

nn::LayerCost TrnDesc::total_cost() const {
  nn::LayerCost total;
  for (const hw::KernelCost& kc : kernels) {
    total.flops += kc.cost.flops;
    total.params += kc.cost.params;
    total.input_elems += kc.cost.input_elems;
    total.output_elems += kc.cost.output_elems;
    total.kernel = std::max(total.kernel, kc.cost.kernel);
  }
  return total;
}

LatencyLab::LatencyLab(LabConfig config)
    : config_(std::move(config)), measurer_(config_.measure), profiler_(config_.profiler) {}

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

TrnDesc LatencyLab::describe_trn(zoo::NetId base, int cut_node) {
  const nn::Graph& trunk = *state(base).trunk;
  nn::check_cut_site(trunk, cut_node, "LatencyLab::describe_trn");
  const std::vector<bool> kept = trunk.ancestors(cut_node);
  TrnDesc trn;
  // Graph::prefix keeps the ancestors in id order, so a node's TRN id is
  // its rank among them.
  int id = 0;
  for (hw::KernelCost& kc : device_.kernel_costs(trunk, config_.precision, config_.fuse)) {
    if (!kept[static_cast<std::size_t>(kc.node)]) continue;
    trn.layers.push_back(trunk.node(kc.node).layer.get());
    kc.node = ++id;
    trn.kernels.push_back(std::move(kc));
  }
  nn::Graph stub;
  stub.add_input(trunk.infer_shapes()[static_cast<std::size_t>(cut_node)]);
  trn.head = append_head(std::move(stub), HeadConfig{});
  for (hw::KernelCost& kc : device_.kernel_costs(trn.head, config_.precision, config_.fuse)) {
    trn.layers.push_back(trn.head.node(kc.node).layer.get());
    kc.node += id;
    trn.kernels.push_back(std::move(kc));
  }
  return trn;
}

double LatencyLab::measured_from(zoo::NetId base, int cut_node, int resume) {
  NetState& st = state(base);
  const auto key = std::make_pair(cut_node, resume);
  if (auto it = st.measured.find(key); it != st.measured.end()) return it->second;
  const double ms = measurer_.measure(true_from(base, cut_node, resume)).mean_ms;
  st.measured[key] = ms;
  return ms;
}

double LatencyLab::true_from(zoo::NetId base, int cut_node, int resume) {
  NetState& st = state(base);
  const auto key = std::make_pair(cut_node, resume);
  if (auto it = st.true_latency.find(key); it != st.true_latency.end()) return it->second;
  const double ms = hw::sum_latency_ms(describe_trn(base, cut_node).kernels, resume);
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
    const TrnDesc full = describe_trn(base, full_cut(base));
    const double end_to_end_ms = measurer_.measure(hw::sum_latency_ms(full.kernels)).mean_ms;
    st.table = std::make_unique<hw::LatencyTable>(
        profiler_.profile(zoo::net_name(base), end_to_end_ms, full.kernels));
  }
  return *st.table;
}

int LatencyLab::trunk_last_node(zoo::NetId base) { return state(base).trunk->output_node(); }

double LatencyLab::training_hours(zoo::NetId base, int cut_node) {
  const TrnDesc trn = describe_trn(base, cut_node);
  return hw::training_hours(static_cast<double>(trn.total_cost().flops));
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
