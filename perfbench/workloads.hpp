// The three benchmark workloads. Each runs the real program through its
// public entry points on a wall clock and fills a Result; main.cpp prints
// it. End-to-end metrics are measured with tracing off; a traced run adds
// the per-layer metrics and the tracing overhead. Every workload reports
// the same metric names (BENCHMARK.json lists them), each measured on that
// workload's own requests and networks; workload-specific numbers are
// printed beside them, ungated.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nn/graph.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: perturb one reference output so the output check must fail.
  bool corrupt_reference = false;
  /// Directory for the weight cache and the trace file (inside the checkout).
  std::string work_dir = ".bench_build";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0 when the metric is not a sample statistic
  std::string note;         // printed beside the value (p99, bases, ...)
};

struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Printed but not in the result line: numbers only this workload has
  /// (per-config latencies, goodput, the serving and exploration phases)
  /// and latency tails, whose run-to-run spread on a shared host exceeds
  /// any bound allowed.
  std::vector<Metric> ungated;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few failed-check descriptions
  Trace trace{Clock::now()};

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Median of `repeats` timed runs of a set-up function, in seconds. The
/// untimed `reset` runs first each time, so an earlier set-up's memory is
/// released before the next one is built and peak RSS counts one set-up.
template <typename F, typename R>
double median_setup_s(int repeats, F&& setup, R&& reset) {
  std::vector<double> s;
  for (int i = 0; i < repeats; ++i) {
    reset();
    const auto t0 = Clock::now();
    setup();
    s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return median(s);
}

/// `<prefix>_p<N>_ms` of a latency sample for N = 10, 50, 90 and 99 as
/// ungated metrics, each tail marked where fewer than ten samples lie
/// beyond it.
inline void push_latency(Result& out, const std::string& prefix, const std::vector<double>& ms,
                         const std::string& context) {
  out.ungated.push_back({prefix + "_p10_ms", percentile(ms, 10.0), "ms", ms.size(), context});
  out.ungated.push_back({prefix + "_p50_ms", median(ms), "ms", ms.size(), context});
  for (double p : {90.0, 99.0})
    out.ungated.push_back({prefix + "_p" + std::to_string(static_cast<int>(p)) + "_ms", percentile(ms, p), "ms",
                           ms.size(), percentile_supported(ms.size(), p) ? "" : "fewer than 10 samples beyond"});
}

/// Set-up is repeated this often per run and reported as the median.
inline constexpr int kSetupRepeats = 5;

/// A network of a workload, BatchNorm folded, for the per-layer suite.
struct SuiteNet {
  std::string name;
  netcut::nn::Graph fused;
};

/// The per-layer metrics of the tensor, nn and quant modules, measured the
/// same way on every workload over that workload's networks (layers.cpp).
void layer_suite(const std::vector<SuiteNet>& nets, const std::vector<netcut::tensor::Tensor>& images,
                 std::uint64_t seed, Result& out);

/// Span-name prefixes of the calls a workload's traced pass makes into the
/// program. Each gives the per-layer metric `<prefix>_share`: the summed
/// span time over the pass's wall time (0 where the workload makes no such
/// call; above 1 where calls overlap on two threads).
inline constexpr const char* kPassSpans[] = {"nn.forward",    "quant.forward_int8", "serve.submit",
                                             "serve.step",    "hw.lab",             "ml.svr_fit",
                                             "core.estimate", "core.harvest",       "core.head_train"};

/// Appends the `<prefix>_share` metrics of the spans recorded so far.
void pass_shares(const Trace& trace, double pass_ms, Result& out);

void run_infer(const Options& opt, Result& out);
void run_serve(const Options& opt, Result& out);
void run_explore(const Options& opt, Result& out);

/// Fills the explore workload's pretrained-trunk weight cache for one zoo
/// network (by index into zoo::all_nets()). Untimed; run.py calls it once
/// per checkout before any measurement.
void fill_weight_cache(const Options& opt, int net_index);

/// Indices of the zoo networks whose weights are not cached yet.
std::vector<int> missing_weights(const Options& opt);

}  // namespace perfbench
