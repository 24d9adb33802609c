// End-to-end performance snapshot (BENCH_e2e.json): wall-clock for the
// built quickstart example and a fast-mode fig10_netcut_selection run, and
// the host's fp32 batch curve (forward_batch ms per image at B = 1..16)
// next to the modeled one (hw::DeviceModel::batch_curve, a simulated
// Jetson), under the same `host` stamp as BENCH_kernels.json. Single-image
// forward latency, allocations and the activation arena are perfbench
// infer's (nn.forward_ms, nn.allocs_per_forward, nn.arena_mb). Appends
// nothing; each run rewrites the JSON so the numbers always describe the
// current tree.
//
//   ./build/bench/e2e_snapshot [--json BENCH_e2e.json]
//
// The two binaries run in fresh subprocesses from this build tree. Like
// every fig* harness they read the cwd's experiment caches
// (netcut_weights/, netcut_accuracy_cache.csv), so the wall-clock reflects
// the steady-state developer loop.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "core/trn.hpp"
#include "hw/device.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "quant/fusion.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "zoo/zoo.hpp"

namespace {

using namespace netcut;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-reps wall time of fn(), in milliseconds.
template <typename Fn>
double time_best_ms(Fn&& fn, int reps) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_ms();
    fn();
    const double t1 = now_ms();
    if (t1 - t0 < best) best = t1 - t0;
  }
  return best;
}

struct BatchCurve {
  std::string net;
  int resolution = 0;
  std::vector<int> batch;
  std::vector<double> measured_ms_per_image, modeled_ms_per_image;
};

/// fp32 forward_batch ms per image on the host (best of reps) and from the
/// device model, at each batch size.
BatchCurve measure_batch_curve(const std::string& name, const nn::Graph& g, int resolution) {
  constexpr int kMaxBatch = 16;
  BatchCurve c;
  c.net = name;
  c.resolution = resolution;
  util::Rng rng(9);
  std::vector<tensor::Tensor> images;
  for (int i = 0; i < kMaxBatch; ++i)
    images.push_back(
        tensor::Tensor::randn(tensor::Shape::chw(3, resolution, resolution), rng, 0.5f));
  const auto modeled =
      hw::DeviceModel().batch_curve(g, hw::Precision::kFp32, /*fuse=*/false, kMaxBatch);
  nn::Network net(g);
  for (const int b : {1, 2, 4, 8, 16}) {
    std::vector<const tensor::Tensor*> in;
    for (int i = 0; i < b; ++i) in.push_back(&images[static_cast<std::size_t>(i)]);
    (void)net.forward_batch(in);  // warm-up: plans this batch size
    c.batch.push_back(b);
    c.measured_ms_per_image.push_back(time_best_ms([&] { (void)net.forward_batch(in); }, 20) / b);
    c.modeled_ms_per_image.push_back(modeled(b) / b);
  }
  return c;
}

/// perfbench `infer`'s two TRNs (BatchNorm folded, 32 px, the same weights)
/// and the ResNet50 trunk at the explore harvest's 24 px.
std::vector<BatchCurve> batch_curves() {
  std::vector<BatchCurve> curves;
  for (auto [key, id, cut] : {std::tuple{"resnet50", zoo::NetId::kResNet50, 58},
                              std::tuple{"mobilenetv2", zoo::NetId::kMobileNetV2_140, 138}}) {
    util::Rng rng(util::derive_seed(2021, key));
    nn::Graph trunk = zoo::build_trunk(id, 32);
    nn::init_graph(trunk, rng);
    const nn::Graph trn = core::build_trn(trunk, cut, core::HeadConfig{}, rng);
    curves.push_back(measure_batch_curve(core::trn_name(zoo::net_name(id), trunk, cut),
                                         quant::fold_batchnorm(trn), 32));
  }
  util::Rng rng(11);
  nn::Graph trunk = zoo::build_trunk(zoo::NetId::kResNet50, 24);
  nn::init_graph(trunk, rng);
  curves.push_back(measure_batch_curve("ResNet50 trunk", trunk, 24));
  return curves;
}

/// Times one fresh-subprocess run of the built binary at `path` (relative
/// to the build tree), in milliseconds.
double time_subprocess_ms(const char* path) {
  const std::string cmd = std::string("'") + NETCUT_BUILD_DIR + "/" + path + "' >/dev/null 2>&1";
  const double t0 = now_ms();
  if (std::system(cmd.c_str()) != 0)
    std::fprintf(stderr, "e2e_snapshot: subprocess '%s' failed\n", cmd.c_str());
  return now_ms() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_e2e.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strncmp(argv[i], "--json=", 7) == 0)
      json_path = argv[i] + 7;
  }

  // Each binary: one untimed warm-up subprocess (weight caches, page
  // cache, frequency ramp), then best-of-3 in fresh subprocesses (the
  // pipelines are deterministic; repetition only filters scheduler noise).
  const auto time_binary = [](const char* path) {
    std::printf("warming up %s...\n", path);
    time_subprocess_ms(path);
    std::printf("timing %s (fresh subprocesses)...\n", path);
    return time_best_ms([&] { return time_subprocess_ms(path); }, 3);
  };
  const double quickstart_ms = time_binary("examples/quickstart");
  setenv("NETCUT_FAST", "1", 1);
  const double fig10_ms = time_binary("bench/fig10_netcut_selection");

  std::printf("batch curves...\n");
  const std::vector<BatchCurve> curves = batch_curves();

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "e2e_snapshot: cannot open " << json_path << "\n";
    return 1;
  }
  out << "{\n";
  out << "  \"host\": " << bench::host_json() << ",\n";
  out << "  \"quickstart\": {\"ms\": " << quickstart_ms << "},\n";
  out << "  \"fig10_fast\": {\"ms\": " << fig10_ms << "},\n";
  out << "  \"batch_curve\": [\n";
  const auto list = [](const auto& v) {
    std::ostringstream s;
    s << '[';
    for (std::size_t i = 0; i < v.size(); ++i) s << (i ? ", " : "") << v[i];
    s << ']';
    return s.str();
  };
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const BatchCurve& c = curves[i];
    out << "    {\"net\": \"" << c.net << "\", \"resolution\": " << c.resolution
        << ", \"precision\": \"fp32\", \"batch\": " << list(c.batch)
        << ", \"measured_ms_per_image\": " << list(c.measured_ms_per_image)
        << ", \"modeled_ms_per_image\": " << list(c.modeled_ms_per_image) << "}"
        << (i + 1 < curves.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << json_path << "\n";

  std::printf("\nquickstart: %.0f ms\nfig10 fast: %.0f ms\n", quickstart_ms, fig10_ms);
  for (const BatchCurve& c : curves) {
    std::printf("%-28s @%d ms/image, measured | modeled:", c.net.c_str(), c.resolution);
    for (std::size_t i = 0; i < c.batch.size(); ++i)
      std::printf("  B%d %.3f | %.3f", c.batch[i], c.measured_ms_per_image[i],
                  c.modeled_ms_per_image[i]);
    std::printf("\n");
  }
  return 0;
}
