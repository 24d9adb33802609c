// The per-layer suite of the tensor, nn and quant modules, run the same way
// by every workload's traced run over the networks that workload runs:
// the kernels alone at every Conv2D geometry, every node through
// Layer::forward_into, planned fp32 forwards (single image and a batch of
// eight), int8 forwards, allocations and arena size. It also turns the
// spans of the workload's traced pass into the share of that pass spent in
// calls into each module.
#include <map>
#include <string>
#include <vector>

#include "nn/conv.hpp"
#include "nn/network.hpp"
#include "quant/qnetwork.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using netcut::tensor::Tensor;
namespace nn = netcut::nn;
namespace quant = netcut::quant;
namespace tensor = netcut::tensor;

constexpr int kReps = 11;       // per-node, kernel and single-image forward repeats
constexpr int kBatch = 8;
constexpr int kBatchReps = 5;   // a batch of eight costs eight forwards
constexpr int kAllocForwards = 10;

const char* const kClasses[] = {"conv2d", "depthwise", "eltwise", "pool", "dense"};

/// Op class of a node for the per-layer breakdown.
std::string op_class(nn::LayerKind k) {
  switch (k) {
    case nn::LayerKind::kConv2D: return "conv2d";
    case nn::LayerKind::kDepthwiseConv2D: return "depthwise";
    case nn::LayerKind::kDense: return "dense";
    case nn::LayerKind::kMaxPool:
    case nn::LayerKind::kAvgPool:
    case nn::LayerKind::kGlobalAvgPool: return "pool";
    default: return "eltwise";  // add, concat, activations, softmax, flatten
  }
}

struct NodeTimes {
  std::map<std::string, double> class_ms;  // summed per-node medians
  std::map<std::string, double> class_flops;
  double total_ms = 0.0;
};

/// Times every node of the graph through Layer::forward_into, one node at a
/// time, on a private copy of the graph; per-node medians over kReps.
void time_nodes(const SuiteNet& net, const Tensor& image, Trace& trace, NodeTimes& t) {
  nn::Graph g = net.fused;
  const std::vector<tensor::Shape>& shapes = g.infer_shapes();
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<Tensor> acts(n);
  std::vector<std::vector<float>> scratch(n);
  std::vector<std::vector<tensor::Shape>> in_shapes(n);
  for (std::size_t id = 1; id < n; ++id) {
    acts[id] = Tensor(shapes[id]);
    for (int src : g.node(static_cast<int>(id)).inputs) in_shapes[id].push_back(shapes[static_cast<std::size_t>(src)]);
    scratch[id].resize(g.node(static_cast<int>(id)).layer->forward_scratch_floats(in_shapes[id]));
  }
  acts[0] = image;
  std::vector<std::vector<double>> ms(n);
  for (int r = 0; r < kReps; ++r)
    for (std::size_t id = 1; id < n; ++id) {
      nn::Node& nd = g.node(static_cast<int>(id));
      std::vector<const Tensor*> in;
      for (int src : nd.inputs) in.push_back(&acts[static_cast<std::size_t>(src)]);
      const auto t0 = Clock::now();
      nd.layer->forward_into(in, acts[id], false, scratch[id].empty() ? nullptr : scratch[id].data());
      const auto t1 = Clock::now();
      ms[id].push_back(ms_between(t0, t1));
      if (r == 0) trace.add("nn.node." + net.name + "." + nn::to_string(nd.layer->kind()), t0, t1);
    }
  for (std::size_t id = 1; id < n; ++id) {
    const nn::Node& nd = g.node(static_cast<int>(id));
    const std::string cls = op_class(nd.layer->kind());
    const double m = median(ms[id]);
    t.class_ms[cls] += m;
    t.class_flops[cls] += static_cast<double>(nd.layer->cost(in_shapes[id]).flops);
    t.total_ms += m;
  }
}

struct KernelTimes {
  double ops = 0.0;  // 2 x m x k x n summed over the geometries
  double im2col_ms = 0.0, gemm_ms = 0.0, s8u8_ms = 0.0;
};

/// Calls the tensor kernels directly at every Conv2D geometry of the
/// network: im2col, fp32 gemm and the int8 gemm. Per-geometry medians.
void time_kernels(const SuiteNet& net, netcut::util::Rng& rng, Trace& trace, KernelTimes& kt) {
  const auto& shapes = net.fused.infer_shapes();
  for (int id = 1; id < net.fused.node_count(); ++id) {
    const nn::Node& nd = net.fused.node(id);
    if (nd.layer->kind() != nn::LayerKind::kConv2D) continue;
    const auto& conv = static_cast<const nn::Conv2D&>(*nd.layer);
    const tensor::Shape& in = shapes[static_cast<std::size_t>(nd.inputs[0])];
    tensor::ConvGeometry g;
    g.in_c = in[0];
    g.in_h = in[1];
    g.in_w = in[2];
    g.kernel_h = conv.kernel_h();
    g.kernel_w = conv.kernel_w();
    g.stride = conv.stride();
    g.pad_h = conv.pad_h();
    g.pad_w = conv.pad_w();
    const int m = conv.out_channels(), k = g.in_c * g.patch(), n = g.out_h() * g.out_w();

    std::vector<float> img(static_cast<std::size_t>(g.in_c) * g.in_h * g.in_w);
    for (float& v : img) v = static_cast<float>(rng.normal());
    std::vector<float> w(static_cast<std::size_t>(m) * k), cols(static_cast<std::size_t>(k) * n),
        c(static_cast<std::size_t>(m) * n);
    for (float& v : w) v = static_cast<float>(rng.normal());
    std::vector<std::int8_t> a8(w.size());
    std::vector<std::uint8_t> b8(cols.size());
    std::vector<std::int32_t> c32(c.size());
    for (auto& v : a8) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& v : b8) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<double> t_im, t_g, t_q;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = Clock::now();
      tensor::im2col(img.data(), g, cols.data());
      const auto t1 = Clock::now();
      tensor::gemm(w.data(), cols.data(), c.data(), m, k, n);
      const auto t2 = Clock::now();
      tensor::gemm_s8u8(a8.data(), b8.data(), c32.data(), m, k, n);
      const auto t3 = Clock::now();
      t_im.push_back(ms_between(t0, t1));
      t_g.push_back(ms_between(t1, t2));
      t_q.push_back(ms_between(t2, t3));
      if (r == 0) {
        trace.add("tensor.im2col", t0, t1);
        trace.add("tensor.gemm", t1, t2);
        trace.add("tensor.gemm_s8u8", t2, t3);
      }
    }
    kt.ops += 2.0 * m * k * static_cast<double>(n);
    kt.im2col_ms += median(t_im);
    kt.gemm_ms += median(t_g);
    kt.s8u8_ms += median(t_q);
  }
}

/// p50 of `reps` timed calls of fn, after one untimed call (plans and
/// arenas are built lazily); the first timed call gets a span.
template <typename F>
double p50_ms(int reps, Trace& trace, const std::string& span, F&& fn) {
  fn();
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    ms.push_back(ms_between(t0, t1));
    if (r == 0) trace.add(span, t0, t1);
  }
  return median(ms);
}

}  // namespace

void pass_shares(const Trace& trace, double pass_ms, Result& out) {
  for (const char* prefix : kPassSpans)
    out.per_layer.push_back({std::string(prefix) + "_share", trace.total_ms_with_prefix(prefix) / pass_ms, "ratio", 0,
                             "of the traced pass's wall time"});
}

void layer_suite(const std::vector<SuiteNet>& nets, const std::vector<Tensor>& images, std::uint64_t seed,
                 Result& out) {
  netcut::util::Rng rng(netcut::util::derive_seed(seed, "perfbench/layers/kernels"));
  std::vector<const Tensor*> calib, batch;
  for (const Tensor& t : images) calib.push_back(&t);
  for (int i = 0; i < kBatch; ++i) batch.push_back(&images[static_cast<std::size_t>(i) % images.size()]);

  KernelTimes kt;
  NodeTimes nt;
  double forward_ms = 0.0, batch_ms = 0.0, int8_ms = 0.0, arena_bytes = 0.0, allocs = 0.0;
  std::string names;
  for (const SuiteNet& net : nets) {
    names += (names.empty() ? "" : ", ") + net.name;
    time_kernels(net, rng, out.trace, kt);
    time_nodes(net, images[0], out.trace, nt);
    nn::Network fp32(net.fused);
    quant::QuantizedNetwork int8(net.fused);
    int8.calibrate(calib);
    forward_ms += p50_ms(kReps, out.trace, "nn.single." + net.name, [&] { fp32.forward(images[0]); });
    batch_ms += p50_ms(kBatchReps, out.trace, "nn.batch8." + net.name, [&] { fp32.forward_batch(batch); });
    int8_ms += p50_ms(kReps, out.trace, "quant.int8." + net.name, [&] { int8.forward_int8(images[0]); });
    const std::uint64_t a0 = tensor::tensor_alloc_count();
    for (int i = 0; i < kAllocForwards; ++i) fp32.forward(images[0]);
    allocs += static_cast<double>(tensor::tensor_alloc_count() - a0) / kAllocForwards;
    arena_bytes += static_cast<double>(fp32.plan_for({}, false).arena_floats()) * sizeof(float);
  }
  const double n = static_cast<double>(nets.size());

  out.per_layer.push_back({"tensor.gemm_gflops", kt.ops / (kt.gemm_ms * 1e6), "GFLOP/s", 0, "every Conv2D geometry of " + names});
  out.per_layer.push_back({"tensor.im2col_ms", kt.im2col_ms, "ms", 0, "one pass over every Conv2D geometry"});
  out.per_layer.push_back({"tensor.gemm_s8u8_gops", kt.ops / (kt.s8u8_ms * 1e6), "GOP/s", 0, ""});
  for (const char* cls : kClasses)
    out.per_layer.push_back({std::string("nn.") + cls + "_ms", nt.class_ms[cls], "ms", 0, "summed per-node p50s"});
  out.per_layer.push_back({"nn.conv2d_gflops", nt.class_flops["conv2d"] / (nt.class_ms["conv2d"] * 1e6), "GFLOP/s", 0, ""});
  out.per_layer.push_back({"nn.depthwise_gflops", nt.class_flops["depthwise"] / (nt.class_ms["depthwise"] * 1e6), "GFLOP/s", 0, ""});
  out.per_layer.push_back({"nn.forward_ms", forward_ms, "ms", 0, "summed single-image fp32 p50s"});
  out.per_layer.push_back({"nn.batch8_ms", batch_ms, "ms", 0, "summed forward_batch p50s, 8 images"});
  char note[96];
  std::snprintf(note, sizeof(note), "sum of nodes %.4f ms / forwards %.4f ms", nt.total_ms, forward_ms);
  out.per_layer.push_back({"nn.layers_over_e2e", nt.total_ms / forward_ms, "ratio", 0, note});
  out.per_layer.push_back({"nn.allocs_per_forward", allocs / n, "count", 0, "tensor storage acquisitions per fp32 forward"});
  out.per_layer.push_back({"nn.arena_mb", arena_bytes / 1e6, "MB", 0, "planned single-image arenas, summed"});
  out.per_layer.push_back({"quant.int8_ms", int8_ms, "ms", 0, "summed single-image int8 p50s"});
  std::snprintf(note, sizeof(note), "fp32 %.4f ms / int8 %.4f ms", forward_ms, int8_ms);
  out.per_layer.push_back({"quant.int8_speedup", forward_ms / int8_ms, "ratio", 0, note});
}

}  // namespace perfbench
