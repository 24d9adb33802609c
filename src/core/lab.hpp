// LatencyLab: the native-resolution side of the experiments. Owns the
// simulated device, the measurement protocol and the per-layer profiler,
// plus a cache of native-resolution trunks, and answers every
// latency/FLOPs/GPU-hour question about a (base, cut) pair (hours from
// hw::training_hours). Every TRN carries the default HeadConfig.
//
// No question builds the TRN it asks about. Each one reads describe_trn:
// the trunk's own kernel costs over the cut's ancestors, renumbered to the
// ids they have in the built TRN, then the costs of a weightless head stub
// on the cut's output shape. Costs depend only on shapes, op kinds and
// fusion, which a trunk prefix shares with its trunk (fusion never crosses
// a legal cut), so every number is bitwise the one the built TRN gives,
// and no weight is copied.
//
// Node ids are resolution-independent, so cut sites computed by the
// evaluator at the experiment resolution address the same layers here.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/trn.hpp"
#include "hw/measure.hpp"
#include "hw/profiler.hpp"

namespace netcut::core {

struct LabConfig {
  hw::MeasureConfig measure;
  hw::ProfilerConfig profiler;
  hw::Precision precision = hw::Precision::kInt8;  // deployment optimizations on
  bool fuse = true;
};

/// A TRN (trunk cut + transfer head) at native resolution, described
/// rather than built.
struct TrnDesc {
  /// Kernel costs under the lab's precision and fusion, in TRN node order;
  /// KernelCost::node is the node's id in the built TRN.
  std::vector<hw::KernelCost> kernels;
  /// The layer behind each kernel: a trunk layer (owned by the lab) or
  /// one of `head`'s.
  std::vector<const nn::Layer*> layers;
  /// The head's layers on an input of the cut's output shape, weights zero.
  nn::Graph head;

  /// Summed per-layer cost, as nn::Graph::total_cost of the built TRN.
  nn::LayerCost total_cost() const;
};

class LatencyLab {
 public:
  explicit LatencyLab(LabConfig config = {});

  const hw::DeviceModel& device() const { return device_; }

  /// Blockwise cut sites of the base trunk, depth order.
  const std::vector<int>& blockwise(zoo::NetId base);
  /// Per-layer (dominator) cut sites.
  const std::vector<int>& iterative(zoo::NetId base);
  /// Cut representing the untrimmed network.
  int full_cut(zoo::NetId base);

  /// Measured latency (full protocol, with noise) of the TRN at native
  /// resolution, trunk cut + transfer head, under the lab's precision and
  /// fusion settings. Memoized per cut.
  double measured_ms(zoo::NetId base, int cut_node);

  /// Noise-free model latency (ground truth underlying measured_ms).
  double true_ms(zoo::NetId base, int cut_node);

  /// Measured second-stage latency of a cascade escalation: the deep TRN's
  /// suffix past the shared trunk prefix at `shallow_cut` (the delta layers
  /// plus the deep head), i.e. the deep TRN resumed at
  /// resume_node(trunk, shallow_cut). Memoized with measured_ms.
  double measured_stage2_ms(zoo::NetId base, int shallow_cut, int deep_cut);

  /// Noise-free model latency underlying measured_stage2_ms.
  double true_stage2_ms(zoo::NetId base, int shallow_cut, int deep_cut);

  /// Per-layer profile of the *full* base network (one table per network is
  /// all the profiler-based estimator needs).
  const hw::LatencyTable& profile(zoo::NetId base);

  /// Last trunk node id of the full base network graph (profiled tables
  /// cover trunk + head; estimators only reason over trunk rows).
  int trunk_last_node(zoo::NetId base);

  /// GPU-hours to retrain this TRN on the training server model
  /// (hw::training_hours of its forward FLOPs).
  double training_hours(zoo::NetId base, int cut_node);

  /// The TRN at native resolution (trunk prefix + head), described from
  /// the cached trunk and a head stub: every question above reads this,
  /// and so do the analytical estimator's features.
  TrnDesc describe_trn(zoo::NetId base, int cut_node);

  /// Paper-style TRN name ("ResNet50/113").
  std::string name(zoo::NetId base, int cut_node);

  /// Trunk layer counts for reporting.
  int layers_removed(zoo::NetId base, int cut_node);
  int layers_remaining(zoo::NetId base, int cut_node);

 private:
  struct NetState {
    std::unique_ptr<nn::Graph> trunk;  // native resolution
    std::vector<int> blockwise;
    std::vector<int> iterative;
    // TRN latencies keyed (cut, resume); resume 0 is the whole TRN.
    std::map<std::pair<int, int>, double> measured;
    std::map<std::pair<int, int>, double> true_latency;
    std::unique_ptr<hw::LatencyTable> table;
  };
  NetState& state(zoo::NetId base);
  double measured_from(zoo::NetId base, int cut_node, int resume);
  double true_from(zoo::NetId base, int cut_node, int resume);

  LabConfig config_;
  hw::DeviceModel device_;
  hw::LatencyMeasurer measurer_;
  hw::LayerProfiler profiler_;
  std::map<zoo::NetId, NetState> states_;
};

}  // namespace netcut::core
