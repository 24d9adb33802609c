// `infer`: a closed loop with one client. Single-image forwards of two TRNs
// (trunk prefix + transfer head, BatchNorm folded, 32x32): ResNet50/58,
// dense conv work, and MobileNetV2-1.40/138, depthwise plus 1x1, the cuts
// NetCut proposes for these trunks at the 0.9 ms deadline (the explore
// workload retrains both). Each runs in fp32
// (Network::forward) and int8 (QuantizedNetwork::forward_int8). The kernels,
// the graph executor and quant do almost all the work; nothing is served
// or trained.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/trn.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "quant/fusion.hpp"
#include "quant/qnetwork.hpp"
#include "tensor/backend.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "zoo/zoo.hpp"

namespace perfbench {
namespace {

using netcut::tensor::Tensor;
namespace nn = netcut::nn;
namespace zoo = netcut::zoo;
namespace quant = netcut::quant;
namespace tensor = netcut::tensor;

constexpr int kResolution = 32;
constexpr int kImages = 4;          // distinct inputs, each with a scalar reference
// The client thread runs every forward itself (a pool of one). With two
// pool participants, two runs in five on a shared 4-core host read twice
// the p50 of the others (a forward waits for whichever participant the
// host descheduled): a quartile spread of 1.0 over five seeds, against 0.1
// with one.
constexpr int kThreads = 1;
constexpr std::uint64_t kWeightSeed = 2021;  // the program's weights; inputs come from --seed

struct Model {
  std::string key;  // "resnet50" / "mobilenetv2"
  nn::Graph fused;  // BN-folded TRN
  std::unique_ptr<nn::Network> fp32;
  std::unique_ptr<quant::QuantizedNetwork> int8;
  std::vector<Tensor> ref_fp32, ref_int8;  // scalar-backend outputs per input
};

struct Setup {
  std::vector<Tensor> images;
  std::vector<Model> models;
};

Setup build(std::uint64_t seed) {
  Setup s;
  netcut::util::Rng in_rng(netcut::util::derive_seed(seed, "perfbench/infer/images"));
  for (int i = 0; i < kImages; ++i)
    s.images.push_back(Tensor::randn(tensor::Shape::chw(3, kResolution, kResolution), in_rng, 0.5f));

  // The full trunks stream about 100 MB of weights per forward: with them
  // the run-to-run spread was no smaller, and peak RSS was 940 MB, not 220.
  for (auto [key, id, cut] : {std::tuple{"resnet50", zoo::NetId::kResNet50, 58},
                              std::tuple{"mobilenetv2", zoo::NetId::kMobileNetV2_140, 138}}) {
    netcut::util::Rng w_rng(netcut::util::derive_seed(kWeightSeed, key));
    nn::Graph trunk = zoo::build_trunk(id, kResolution);
    nn::init_graph(trunk, w_rng);
    const nn::Graph trn = netcut::core::build_trn(trunk, cut, netcut::core::HeadConfig{}, w_rng);
    Model m{key, quant::fold_batchnorm(trn), nullptr, nullptr, {}, {}};
    m.fp32 = std::make_unique<nn::Network>(m.fused);
    m.int8 = std::make_unique<quant::QuantizedNetwork>(m.fused);
    std::vector<const Tensor*> calib;
    for (const Tensor& t : s.images) calib.push_back(&t);
    m.int8->calibrate(calib);
    s.models.push_back(std::move(m));
  }

  // References on the scalar backend, the kernels' correctness oracle.
  const tensor::BackendKind active = tensor::active_backend_kind();
  tensor::set_backend(tensor::BackendKind::kScalar);
  for (Model& m : s.models)
    for (const Tensor& img : s.images) {
      m.ref_fp32.push_back(m.fp32->forward(img));
      m.ref_int8.push_back(m.int8->forward_int8(img));
    }
  tensor::set_backend(active);
  // Warm-up on the measured backend: plans and arenas are built lazily.
  for (Model& m : s.models) {
    m.fp32->forward(s.images[0]);
    m.int8->forward_int8(s.images[0]);
  }
  return s;
}

/// fp32 outputs may differ from the scalar reference by the kernels' ULP
/// budget (FMA contraction and lane-order reductions), accumulated through
/// the network's depth; relative to the output's magnitude.
bool fp32_close(const Tensor& got, const Tensor& ref) {
  if (got.numel() != ref.numel()) return false;
  float scale = 1.0f;
  for (std::int64_t i = 0; i < ref.numel(); ++i) scale = std::max(scale, std::fabs(ref.data()[i]));
  const float tol = 1e-4f * scale;
  for (std::int64_t i = 0; i < ref.numel(); ++i)
    if (!(std::fabs(got.data()[i] - ref.data()[i]) <= tol)) return false;
  return true;
}

bool bit_identical(const Tensor& got, const Tensor& ref) {
  return got.numel() == ref.numel() &&
         std::memcmp(got.data(), ref.data(), static_cast<std::size_t>(ref.numel()) * sizeof(float)) == 0;
}

// One (model, precision) pairing of the closed loop.
struct Config {
  std::string name;  // e.g. "fp32_resnet50"
  std::size_t model;
  bool int8;
  std::vector<double> ms;
};

/// The closed loop: one client, each forward issued after the previous one
/// returned, rotating over the four configs; every output checked. Returns
/// its wall time, ms.
double closed_loop(Setup& s, std::vector<Config>& configs, double seconds, std::uint64_t seed,
                 Result& out, Trace* trace) {
  netcut::util::Rng pick(netcut::util::derive_seed(seed, "perfbench/infer/picks"));
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  std::size_t round = 0;
  while (Clock::now() < end) {
    for (std::size_t k = 0; k < configs.size(); ++k) {
      Config& c = configs[(k + round) % configs.size()];
      Model& m = s.models[c.model];
      const int img = pick.uniform_int(0, kImages - 1);
      const auto t0 = Clock::now();
      Tensor y = c.int8 ? m.int8->forward_int8(s.images[static_cast<std::size_t>(img)])
                        : m.fp32->forward(s.images[static_cast<std::size_t>(img)]);
      const auto t1 = Clock::now();
      if (trace != nullptr) trace->add((c.int8 ? "quant.forward_int8." : "nn.forward.") + m.key, t0, t1);
      c.ms.push_back(ms_between(t0, t1));
      ++out.attempted;
      const bool ok = c.int8 ? bit_identical(y, m.ref_int8[static_cast<std::size_t>(img)])
                             : fp32_close(y, m.ref_fp32[static_cast<std::size_t>(img)]);
      if (!ok) out.fail(c.name + " output differs from the scalar-backend reference (image " +
                        std::to_string(img) + ")");
    }
    ++round;
  }
  return ms_between(start, Clock::now());
}

std::vector<Config> make_configs() {
  return {{"fp32_resnet50", 0, false, {}},
          {"int8_resnet50", 0, true, {}},
          {"fp32_mobilenetv2", 1, false, {}},
          {"int8_mobilenetv2", 1, true, {}}};
}

}  // namespace

void run_infer(const Options& opt, Result& out) {
  netcut::util::set_num_threads(kThreads);
  Setup s;
  const double setup_s = median_setup_s(kSetupRepeats, [&] { s = build(opt.seed); }, [&] { s = Setup{}; });
  if (opt.corrupt_reference) s.models[0].ref_fp32[0].data()[0] += 0.5f;

  // Untraced closed loop: the end-to-end numbers. A traced run alternates
  // untraced and traced slices of equal length (a span around every
  // forward), so drift in the host's speed hits both alike.
  constexpr int kTraceSlices = 10;
  std::vector<Config> plain = make_configs(), traced = make_configs();
  double plain_ms = 0.0, traced_ms = 0.0;
  if (!opt.trace) {
    plain_ms = closed_loop(s, plain, opt.seconds, opt.seed, out, nullptr);
  } else {
    for (int i = 0; i < kTraceSlices; ++i) {
      plain_ms += closed_loop(s, plain, opt.seconds / (2 * kTraceSlices), opt.seed + i, out, nullptr);
      traced_ms += closed_loop(s, traced, opt.seconds / (2 * kTraceSlices), opt.seed + i, out, &out.trace);
    }
  }

  // One request is one forward. The latency is the geometric mean of the
  // four configs' p10s, so each config's relative change counts alike. The
  // loop repeats identical forwards, and the shared host's contention only
  // ever slows one: it came in windows of ten to thirty seconds that made
  // forwards about 1.4 times slower, so a run's p50 read how much of it
  // fell in such a window. Over ten seeds the p50-based figure spread 0.30
  // of its median; over eight, the p10-based one spread 0.02.
  double log_sum = 0.0;
  std::size_t forwards = 0;
  for (const Config& c : plain) {
    push_latency(out, "infer_" + c.name, c.ms, "");
    log_sum += std::log(percentile(c.ms, 10.0));
    forwards += c.ms.size();
  }
  out.end_to_end.push_back({"setup_s", setup_s, "s", kSetupRepeats, ""});
  out.end_to_end.push_back({"latency_ms", std::exp(log_sum / static_cast<double>(plain.size())), "ms", forwards,
                            "geometric mean of the four configs' forward p10s"});
  out.ungated.push_back({"infer_forwards_per_s", static_cast<double>(forwards) / (plain_ms / 1000.0), "1/s", forwards,
                         "closed loop, all four configs"});
  if (!opt.trace) return;

  double plain_sum = 0.0, traced_sum = 0.0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain_sum += median(plain[i].ms);
    traced_sum += median(traced[i].ms);
  }
  out.per_layer.push_back({"trace_overhead_pct", (traced_sum - plain_sum) / plain_sum * 100.0, "%", 0,
                           "sum of the four traced p50s vs untraced"});
  pass_shares(out.trace, traced_ms, out);
  std::vector<SuiteNet> nets;
  for (const Model& m : s.models) nets.push_back({m.key, m.fused});
  layer_suite(nets, s.images, opt.seed, out);
}

}  // namespace perfbench
