#include "hw/device.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace netcut::hw {

const char* to_string(Precision p) { return p == Precision::kFp32 ? "fp32" : "int8"; }

// The Jetson-Xavier-like roofline.
constexpr double kPeakGflopsFp32 = 1400.0;
constexpr double kPeakGflopsInt8 = 11000.0;  // tensor-core / DLA int8 path
constexpr double kMemBandwidthGbps = 137.0;  // LPDDR4x
constexpr double kKernelLaunchUs = 9.0;
constexpr double kEfficiencyConv = 0.55;       // dense spatial convolutions
constexpr double kEfficiencyPointwise = 0.45;  // 1x1 convolutions
constexpr double kEfficiencyDepthwise = 0.12;  // memory-bound
constexpr double kEfficiencyDense = 0.35;
/// Output-grid utilization knee: efficiency scales by s/(s+knee) where s is
/// the output spatial element count.
constexpr double kSpatialKnee = 16.0;

DeviceModel::DeviceModel(double perf_factor)
    : peak_gflops_fp32_(kPeakGflopsFp32 * perf_factor),
      peak_gflops_int8_(kPeakGflopsInt8 * perf_factor),
      mem_bandwidth_gbps_(kMemBandwidthGbps * perf_factor) {
  if (!(perf_factor > 0)) throw std::invalid_argument("DeviceModel: non-positive perf_factor");
}

std::vector<bool> DeviceModel::fused_away(const nn::Graph& graph) {
  const int n = graph.node_count();
  std::vector<int> consumers(static_cast<std::size_t>(n), 0);
  for (int id = 1; id < n; ++id)
    for (int src : graph.node(id).inputs) ++consumers[static_cast<std::size_t>(src)];

  auto is_compute = [](nn::LayerKind k) {
    switch (k) {
      case nn::LayerKind::kConv2D:
      case nn::LayerKind::kDepthwiseConv2D:
      case nn::LayerKind::kDense:
      case nn::LayerKind::kAdd:
      case nn::LayerKind::kBatchNorm:
        return true;
      default:
        return false;
    }
  };

  std::vector<bool> fused(static_cast<std::size_t>(n), false);
  for (int id = 1; id < n; ++id) {
    const nn::Node& nd = graph.node(id);
    const nn::LayerKind k = nd.layer->kind();
    if (k != nn::LayerKind::kBatchNorm && k != nn::LayerKind::kReLU &&
        k != nn::LayerKind::kReLU6)
      continue;
    if (nd.inputs.size() != 1) continue;
    const int producer = nd.inputs[0];
    if (producer == graph.input_node()) continue;
    if (consumers[static_cast<std::size_t>(producer)] != 1) continue;
    if (!is_compute(graph.node(producer).layer->kind())) continue;
    fused[static_cast<std::size_t>(id)] = true;
  }
  return fused;
}

double DeviceModel::node_latency_ms(const nn::Layer& layer, const nn::LayerCost& cost,
                                    Precision precision, int batch) const {
  const double elem_bytes = precision == Precision::kInt8 ? 1.0 : 4.0;
  const double peak =
      precision == Precision::kInt8 ? peak_gflops_int8_ : peak_gflops_fp32_;
  const double b = static_cast<double>(batch);

  double eff = 0.0;
  switch (layer.kind()) {
    case nn::LayerKind::kConv2D:
      eff = cost.kernel > 1 ? kEfficiencyConv : kEfficiencyPointwise;
      break;
    case nn::LayerKind::kDepthwiseConv2D:
      eff = kEfficiencyDepthwise;
      break;
    case nn::LayerKind::kDense:
      eff = kEfficiencyDense;
      break;
    default:
      eff = 0.0;  // bandwidth-bound ops: no compute term
      break;
  }

  double compute_ms = 0.0;
  if (eff > 0.0) {
    // Small output grids under-utilize the SMs; a batched launch fills them
    // with batch x output_elems work items.
    const double spatial = std::max<double>(1.0, b * static_cast<double>(cost.output_elems));
    const double util = spatial / (spatial + kSpatialKnee * 1024.0);
    compute_ms =
        b * static_cast<double>(cost.flops) / (peak * 1e9 * eff * std::max(util, 0.05)) * 1e3;
  }

  // Activations stream per image; weights stream once per batched launch.
  const double bytes =
      b * (static_cast<double>(cost.input_elems) + static_cast<double>(cost.output_elems)) *
          elem_bytes +
      static_cast<double>(cost.params) * elem_bytes;
  const double memory_ms = bytes / (mem_bandwidth_gbps_ * 1e9) * 1e3;

  return kKernelLaunchUs * 1e-3 + std::max(compute_ms, memory_ms);
}

std::vector<KernelCost> DeviceModel::kernel_costs(const nn::Graph& graph, Precision precision,
                                                  bool fuse, int batch) const {
  const std::vector<tensor::Shape> shapes = graph.infer_shapes();
  const std::vector<bool> fused =
      fuse ? fused_away(graph) : std::vector<bool>(static_cast<std::size_t>(graph.node_count()),
                                                   false);
  std::vector<KernelCost> out;
  out.reserve(static_cast<std::size_t>(graph.node_count()) - 1);
  for (int id = 1; id < graph.node_count(); ++id) {
    const nn::Node& nd = graph.node(id);
    std::vector<tensor::Shape> in;
    for (int src : nd.inputs) in.push_back(shapes[static_cast<std::size_t>(src)]);
    KernelCost kc;
    kc.node = id;
    kc.name = nd.name;
    kc.fused_away = fused[static_cast<std::size_t>(id)];
    kc.cost = nd.layer->cost(in);
    kc.latency_ms = kc.fused_away ? 0.0 : node_latency_ms(*nd.layer, kc.cost, precision, batch);
    out.push_back(std::move(kc));
  }
  return out;
}

double sum_latency_ms(const std::vector<KernelCost>& kernels, int resume) {
  if (resume < 0 || resume > static_cast<int>(kernels.size()))
    throw std::invalid_argument("sum_latency_ms: resume out of range");
  double total = 0.0;
  for (const KernelCost& kc : kernels)
    if (kc.node > resume) total += kc.latency_ms;
  return total;
}

double DeviceModel::network_latency_ms(const nn::Graph& graph, Precision precision,
                                       bool fuse, int batch, int resume) const {
  return sum_latency_ms(kernel_costs(graph, precision, fuse, batch), resume);
}

std::function<double(int)> DeviceModel::batch_curve(const nn::Graph& graph,
                                                     Precision precision, bool fuse,
                                                     int max_batch, int resume) const {
  if (max_batch < 1) throw std::invalid_argument("DeviceModel::batch_curve: max_batch < 1");
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(max_batch));
  for (int b = 1; b <= max_batch; ++b)
    ms.push_back(network_latency_ms(graph, precision, fuse, b, resume));
  return [ms = std::move(ms)](int b) {
    if (b < 1 || b > static_cast<int>(ms.size()))
      throw std::out_of_range("DeviceModel::batch_curve: batch out of range");
    return ms[static_cast<std::size_t>(b - 1)];
  };
}

double DeviceModel::int8_speedup(const nn::Graph& graph, bool fuse, int batch) const {
  const double fp32 = network_latency_ms(graph, Precision::kFp32, fuse, batch);
  const double int8 = network_latency_ms(graph, Precision::kInt8, fuse, batch);
  return int8 > 0.0 ? fp32 / int8 : 1.0;
}

}  // namespace netcut::hw
