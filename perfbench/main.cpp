// perfbench_main: runs one workload and prints its metrics. Normally
// launched through perfbench/run.py, which builds this binary, fills the
// weight cache and passes the source identity for the host stamp.
//
//   perfbench_main --workload infer|serve|explore --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--source ID] [--corrupt-reference]
//   perfbench_main --fill-weights NET_INDEX [--work-dir DIR]
//   perfbench_main --missing-weights [--work-dir DIR]
//
// Output: human-readable lines, one `perfbench-stamp {...}` line, and as the
// last line one JSON object {correct, attempted, failed, metrics}. Exit code
// 1 when an output check failed, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "tensor/backend.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(line.find_first_not_of(' ', colon + 1));
    }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_main: %s\nusage: perfbench_main --workload infer|serve|explore --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--source ID] [--corrupt-reference]\n"
               "       perfbench_main --fill-weights NET_INDEX [--work-dir DIR]\n"
               "       perfbench_main --missing-weights [--work-dir DIR]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0' && s[0] != '-';
}

void print_metric(const Metric& m) {
  std::printf("  %-34s %14.6g %-9s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples > 0) std::printf(" n=%zu", m.samples);
  if (!m.note.empty()) std::printf("  [%s]", m.note.c_str());
  std::printf("\n");
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
         ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string source = "unknown";
  int fill = -1;
  bool have_seed = false, have_seconds = false, have_trace = false, list_missing = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (a == "--corrupt-reference" || a == "--missing-weights") {
      (a == "--corrupt-reference" ? opt.corrupt_reference : list_missing) = true;
      continue;
    }
    if (v == nullptr) return usage(("missing value for " + a).c_str());
    ++i;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed" && parse_u64(v, n)) {
      opt.seed = n;
      have_seed = true;
    } else if (a == "--seconds" && parse_u64(v, n) && n >= 1 && n <= 3600) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace" && (std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0)) {
      opt.trace = v[0] == '1';
      have_trace = true;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--source") {
      source = v;
    } else if (a == "--fill-weights" && parse_u64(v, n) && n < 7) {
      fill = static_cast<int>(n);
    } else {
      return usage(("bad argument " + a + " " + v).c_str());
    }
  }

  try {
    if (fill >= 0) {
      fill_weight_cache(opt, fill);
      return 0;
    }
    if (list_missing) {
      for (int i : missing_weights(opt)) std::printf("%d\n", i);
      return 0;
    }
    if (!have_seed || !have_seconds || !have_trace) return usage("--seed, --seconds and --trace are required");
    void (*run)(const Options&, Result&) = nullptr;
    if (opt.workload == "infer") run = run_infer;
    if (opt.workload == "serve") run = run_serve;
    if (opt.workload == "explore") run = run_explore;
    if (run == nullptr) return usage(("unknown workload '" + opt.workload + "'").c_str());

    Result res;
    run(opt, res);
    res.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 0, "getrusage ru_maxrss"});

    std::printf("perfbench-stamp {\"cpu\": %s, \"nproc\": %ld, \"simd_isa\": %s, \"backend\": %s, "
                "\"threads\": %d, \"source\": %s, \"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                "\"trace\": %d}\n",
                json_string(cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                json_string(netcut::tensor::simd_isa()).c_str(),
                json_string(netcut::tensor::backend_name(netcut::tensor::active_backend_kind())).c_str(),
                netcut::util::num_threads(), json_string(source).c_str(),
                json_string(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
                json_number(opt.seconds).c_str(), opt.trace ? 1 : 0);
    std::printf("%s end-to-end:\n", opt.workload.c_str());
    for (const Metric& m : res.end_to_end) print_metric(m);
    if (!res.ungated.empty()) std::printf("%s ungated:\n", opt.workload.c_str());
    for (const Metric& m : res.ungated) print_metric(m);
    if (opt.trace) {
      std::printf("%s per-layer (traced run):\n", opt.workload.c_str());
      for (const Metric& m : res.per_layer) print_metric(m);
      const std::string path = opt.work_dir + "/perfbench-trace-" + opt.workload + ".json";
      if (res.trace.write_chrome_json(path)) std::printf("spans: %s\n", path.c_str());
    }
    for (const std::string& f : res.failures) std::printf("FAILED CHECK: %s\n", f.c_str());
    std::printf("operations: %lld attempted, %lld failed\n", static_cast<long long>(res.attempted),
                static_cast<long long>(res.failed));
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
                res.failed == 0 ? "true" : "false", static_cast<long long>(std::max<std::int64_t>(res.attempted, 1)),
                static_cast<long long>(res.failed),
                metrics_json(opt.trace ? res.per_layer : res.end_to_end).c_str());
    std::fflush(stdout);
    return res.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_main: %s\n", e.what());
    return 1;
  }
}
