// Substrate micro-benchmarks (google-benchmark): the kernels everything
// else is built on, plus end-to-end inference of representative networks at
// experiment resolution, the SVR fit, and the TRN construction path.
//
// `--json <path>` switches to a self-timed kernel sweep that writes to
// <path> one JSON object: a `host` stamp (CPU model, nproc, simd ISA,
// backend, threads, git sha) and `records`, an array of {kernel, m, k, n,
// gflops, ms, backend} — every fp32/int8 kernel shape timed under both the
// scalar and simd backends, square sizes and the small-N GEMMs of TRN
// convolutions, the TRN's depthwise layers, plus end-to-end fp32 vs integer forwards of a zoo trunk
// with the measured and DeviceModel-predicted int8 speedups — so the perf
// trajectory of the GEMM/conv substrate can be tracked across commits
// (see BENCH_kernels.json).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "core/trn.hpp"
#include "data/hands.hpp"
#include "hw/device.hpp"
#include "ml/svr.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "quant/fusion.hpp"
#include "quant/qnetwork.hpp"
#include "tensor/backend.hpp"
#include "tensor/gemm.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "zoo/zoo.hpp"

namespace {

using namespace netcut;

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  const auto a = tensor::Tensor::randn(tensor::Shape{n, n}, rng);
  const auto b = tensor::Tensor::randn(tensor::Shape{n, n}, rng);
  tensor::Tensor c(tensor::Shape{n, n});
  for (auto _ : state) {
    tensor::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv3x3(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  util::Rng rng(2);
  nn::Conv2D conv(c, c, 3, 1);
  nn::he_init_conv(conv.weight(), rng);
  const auto x = tensor::Tensor::randn(tensor::Shape::chw(c, 16, 16), rng);
  for (auto _ : state) {
    auto y = conv.forward({&x}, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv3x3)->Arg(16)->Arg(64);

/// The depthwise geometries of the MobileNetV2-1.40/138 TRN at 32 px, all
/// 3x3 "same": channels, square input plane, stride. Planes shrink while
/// channels grow, down to 1x1 planes where 8 of the 9 taps are padding.
struct DepthwiseCase {
  int channels, plane, stride;
};
constexpr DepthwiseCase kTrnDepthwise[] = {
    {48, 16, 1}, {144, 16, 2}, {192, 8, 1}, {528, 2, 1}, {1344, 1, 1}};

/// One depthwise node as the planned executor runs it: output and kernel
/// scratch allocated once, forward_into per call.
struct DepthwiseNode {
  nn::DepthwiseConv2D conv;
  tensor::Tensor x, y;
  std::vector<float> scratch;
  DepthwiseNode(const DepthwiseCase& dc, util::Rng& rng)
      : conv(dc.channels, 3, dc.stride),
        x(tensor::Tensor::randn(tensor::Shape::chw(dc.channels, dc.plane, dc.plane), rng)) {
    nn::he_init_conv(conv.weight(), rng);
    y = tensor::Tensor(conv.output_shape({x.shape()}));
    scratch.resize(conv.forward_scratch_floats({x.shape()}));
  }
  void run() { conv.forward_into({&x}, y, false, scratch.data()); }
  std::int64_t flops() const { return conv.cost({x.shape()}).flops; }
};

/// Args: index into kTrnDepthwise, backend (0 scalar, 1 simd).
void BM_DepthwiseConv(benchmark::State& state) {
  const DepthwiseCase& dc = kTrnDepthwise[state.range(0)];
  const tensor::BackendKind entry = tensor::active_backend_kind();
  tensor::set_backend(state.range(1) == 0 ? tensor::BackendKind::kScalar
                                          : tensor::BackendKind::kSimd);
  util::Rng rng(3);
  DepthwiseNode node(dc, rng);
  for (auto _ : state) {
    node.run();
    benchmark::DoNotOptimize(node.y.data());
  }
  tensor::set_backend(entry);
  state.SetItemsProcessed(state.iterations() * node.flops());
  char label[48];
  std::snprintf(label, sizeof(label), "%d@%dx%d s%d %s", dc.channels, dc.plane, dc.plane,
                dc.stride, state.range(1) == 0 ? "scalar" : "simd");
  state.SetLabel(label);
}
BENCHMARK(BM_DepthwiseConv)
    ->ArgsProduct({benchmark::CreateDenseRange(0, static_cast<int>(std::size(kTrnDepthwise)) - 1, 1), {0, 1}});

void BM_Int8VsFp32Dense(benchmark::State& state) {
  // One Dense node as production runs it: the fp32 planned forward against
  // the integer pass on weights quantized and packed once.
  const bool int8 = state.range(0) == 1;
  util::Rng rng(4);
  nn::Graph g;
  const int in = g.add_input(tensor::Shape::vec(512));
  auto dense = std::make_unique<nn::Dense>(512, 128);
  nn::xavier_init_dense(dense->weight(), rng);
  g.add(std::move(dense), {in}, "dense");
  const auto x = tensor::Tensor::uniform(tensor::Shape::vec(512), rng, 0.0f, 1.0f);
  nn::Network fp(g);
  quant::QuantizedNetwork qnet(std::move(g));
  qnet.calibrate({&x});
  for (auto _ : state) {
    auto y = int8 ? qnet.forward_int8(x) : fp.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Int8VsFp32Dense)->Arg(0)->Arg(1);

void BM_InferenceMobileNetV1(benchmark::State& state) {
  util::Rng rng(5);
  nn::Graph g = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  nn::init_graph(g, rng);
  nn::Network net(std::move(g));
  const auto x = tensor::Tensor::randn(tensor::Shape::chw(3, 32, 32), rng, 0.5f);
  for (auto _ : state) {
    auto y = net.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_InferenceMobileNetV1);

void BM_SvrFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(6);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < n; ++i) {
    const double t = rng.uniform(0.0, 2.0);
    x.push_back({t, t * t});
    y.push_back(std::sin(3.0 * t));
  }
  ml::SvrConfig cfg;
  cfg.gamma = 1.0;
  cfg.c = 100.0;
  for (auto _ : state) {
    ml::Svr svr(cfg);
    svr.fit(x, y);
    benchmark::DoNotOptimize(svr.support_vector_count());
  }
}
BENCHMARK(BM_SvrFit)->Arg(40)->Arg(120);

void BM_TrnConstruction(benchmark::State& state) {
  const nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV2_100, 224);
  const auto cuts = core::blockwise_cutpoints(trunk);
  util::Rng rng(7);
  for (auto _ : state) {
    const nn::Graph trn =
        core::build_trn(trunk, cuts[cuts.size() / 2], core::HeadConfig{}, rng);
    benchmark::DoNotOptimize(trn.node_count());
  }
}
BENCHMARK(BM_TrnConstruction);

void BM_HandsRender(benchmark::State& state) {
  util::Rng rng(8);
  for (auto _ : state) {
    auto img = data::render_object(data::GraspType::kPowerSphere, 32, rng, 0.05);
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_HandsRender);

struct KernelRecord {
  const char* kernel;
  int m, k, n;
  double gflops = 0.0;
  double ms = 0.0;
  const char* backend = "simd";
};

/// Best-of-reps wall time of fn(), in milliseconds.
template <typename Fn>
double time_best_ms(Fn&& fn, int warmup = 2, int reps = 5) {
  for (int i = 0; i < warmup; ++i) fn();
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

int run_json_sweep(const std::string& path) {
  util::Rng rng(42);
  std::vector<KernelRecord> records;

  // Every kernel shape is timed once per backend; `backend` tags the rows so
  // the JSON keeps scalar and simd columns side by side.
  for (const tensor::BackendKind kind :
       {tensor::BackendKind::kScalar, tensor::BackendKind::kSimd}) {
    tensor::set_backend(kind);
    const char* backend = tensor::backend_name(kind);

    auto gemm_like = [&](const char* name, int m, int k, int n, auto&& kernel) {
      const auto a = tensor::Tensor::randn(tensor::Shape{m, k}, rng);
      const auto b = tensor::Tensor::randn(tensor::Shape{k, n}, rng);
      tensor::Tensor c(tensor::Shape{m, n});
      KernelRecord r{name, m, k, n};
      r.backend = backend;
      r.ms = time_best_ms([&] {
        kernel(a.data(), b.data(), c.data(), m, k, n);
        benchmark::DoNotOptimize(c.data());
      });
      r.gflops = 2.0 * m * k * n / (r.ms * 1e6);
      records.push_back(r);
    };

    for (const int s : {64, 128, 256, 512})
      gemm_like("gemm", s, s, s, tensor::gemm);
    // Transposed variants at the shapes Conv2D::backward exercises. Operand
    // layouts differ from plain gemm ([k x m] A, [n x k] B) but the random
    // fill only cares about element count, so the timing is representative.
    for (const int s : {64, 128, 256, 512}) {
      gemm_like("gemm_at", s, s, s, tensor::gemm_at);
      gemm_like("gemm_bt", s, s, s, tensor::gemm_bt);
    }

    // Integer GEMM (uint8 activations x int8 weights -> int32), the engine
    // of the quantized inference path. MACs counted as 2 ops like fp32 so
    // the gflops column is directly comparable.
    const auto s8u8_like = [&](const char* name, int m, int k, int n, bool prepacked) {
      std::vector<std::int8_t> a(static_cast<std::size_t>(m) * k);
      std::vector<std::uint8_t> b(static_cast<std::size_t>(k) * n);
      std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n);
      for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
      for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      const tensor::S8Panels panels = tensor::pack_s8_panels(a.data(), m, k);
      KernelRecord r{name, m, k, n};
      r.backend = backend;
      r.ms = time_best_ms([&] {
        if (prepacked) {
          tensor::gemm_s8u8(panels, b.data(), c.data(), n);
        } else {
          tensor::gemm_s8u8(a.data(), b.data(), c.data(), m, k, n);
        }
        benchmark::DoNotOptimize(c.data());
      });
      r.gflops = 2.0 * m * k * n / (r.ms * 1e6);
      records.push_back(r);
    };
    // Square sizes through the raw-A wrapper, which packs A on every call.
    for (const int s : {64, 128, 256, 512}) s8u8_like("gemm_s8u8", s, s, s, false);

    // TRN convolutions: a trunk cut early and run at 24-32 px leaves a
    // handful of output pixels (N = 2x2 .. 8x8), against K up to 2304. The
    // int8 rows take weights packed once, as QuantizedNetwork does.
    for (const auto& [m, k, n] : {std::tuple{256, 2304, 4}, std::tuple{1024, 256, 4},
                                  std::tuple{256, 2304, 9}, std::tuple{128, 1152, 16},
                                  std::tuple{512, 128, 16}, std::tuple{64, 576, 36},
                                  std::tuple{64, 576, 64}, std::tuple{256, 64, 64}}) {
      gemm_like("gemm_trn", m, k, n, tensor::gemm);
      s8u8_like("gemm_s8u8_trn", m, k, n, true);
    }

    for (const int c : {16, 64}) {
      nn::Conv2D conv(c, c, 3, 1);
      nn::he_init_conv(conv.weight(), rng);
      const auto x = tensor::Tensor::randn(tensor::Shape::chw(c, 16, 16), rng);
      // im2col lowering: m = out_c, k = in_c*3*3, n = oh*ow.
      KernelRecord r{"conv3x3", c, c * 9, 16 * 16};
      r.backend = backend;
      r.ms = time_best_ms([&] {
        auto y = conv.forward({&x}, false);
        benchmark::DoNotOptimize(y.data());
      });
      r.gflops = 2.0 * r.m * r.k * r.n / (r.ms * 1e6);
      records.push_back(r);
    }

    // The TRN's depthwise nodes: m = channels, k = 9 taps, n = output
    // pixels; gflops counts the layer's FLOPs (taps plus bias).
    for (const DepthwiseCase& dc : kTrnDepthwise) {
      DepthwiseNode node(dc, rng);
      const int out = node.y.shape()[1];
      KernelRecord r{dc.stride == 1 ? "depthwise3x3_s1" : "depthwise3x3_s2", dc.channels, 9,
                     out * out};
      r.backend = backend;
      r.ms = time_best_ms([&] {
        node.run();
        benchmark::DoNotOptimize(node.y.data());
      });
      r.gflops = static_cast<double>(node.flops()) / (r.ms * 1e6);
      records.push_back(r);
    }
  }
  tensor::set_backend(tensor::BackendKind::kSimd);

  // End-to-end fp32 vs genuine integer inference on a conv-heavy zoo trunk,
  // with the DeviceModel's analytical int8 term alongside the measured
  // ratio (the model simulates an embedded GPU, so the two need not agree —
  // the point is recording both for the validation story).
  {
    nn::Graph g = zoo::build_trunk(zoo::NetId::kResNet50, 32);
    nn::init_graph(g, rng);
    nn::Network net(quant::fold_batchnorm(g));
    quant::QuantizedNetwork qnet(quant::fold_batchnorm(g));
    const auto img0 = tensor::Tensor::randn(tensor::Shape::chw(3, 32, 32), rng, 0.5f);
    const auto img1 = tensor::Tensor::randn(tensor::Shape::chw(3, 32, 32), rng, 0.5f);
    qnet.calibrate({&img0, &img1});

    KernelRecord fp{"forward_fp32_resnet50", 0, 0, 0};
    fp.ms = time_best_ms([&] {
      auto y = net.forward(img0);
      benchmark::DoNotOptimize(y.data());
    });
    records.push_back(fp);

    KernelRecord q8{"forward_int8_resnet50", 0, 0, 0};
    q8.ms = time_best_ms([&] {
      auto y = qnet.forward_int8(img0);
      benchmark::DoNotOptimize(y.data());
    });
    records.push_back(q8);

    const double measured = q8.ms > 0.0 ? fp.ms / q8.ms : 0.0;
    const double predicted = hw::DeviceModel().int8_speedup(net.graph(), /*fuse=*/true);
    std::cout << "int8 e2e (resnet50@32): fp32 " << fp.ms << " ms, int8 " << q8.ms
              << " ms, measured speedup " << measured << "x, device-model term "
              << predicted << "x\n";
    KernelRecord sp{"int8_speedup_resnet50", 0, 0, 0};
    sp.gflops = measured;  // ratio, not a rate; kept in-schema for trending
    sp.ms = predicted;
    records.push_back(sp);
  }

  std::ofstream out(path);
  if (!out) {
    std::cerr << "micro_kernels: cannot open " << path << "\n";
    return 1;
  }
  out << "{\n  \"host\": " << bench::host_json() << ",\n  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const KernelRecord& r = records[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"m\": " << r.m << ", \"k\": " << r.k
        << ", \"n\": " << r.n << ", \"gflops\": " << r.gflops << ", \"ms\": " << r.ms
        << ", \"backend\": \"" << r.backend << "\"}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << records.size() << " kernel records to " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  // Strip --json <path> / --json=<path> before google-benchmark sees argv.
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  if (!json_path.empty()) return run_json_sweep(json_path);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
