// Measurement helpers shared by the benchmark workloads: percentiles with
// the sample-count rule, the open-loop Poisson schedule, the request
// conservation check, an in-memory span recorder, and JSON formatting.
// Everything here is pure (no program state), so selftest.cpp covers it
// without running a workload.
#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Percentiles

/// util::percentile (linear interpolation between closest ranks), but NaN
/// for an empty sample so a run whose checks failed still prints its
/// metrics.
inline double percentile(const std::vector<double>& v, double p) {
  return v.empty() ? std::nan("") : netcut::util::percentile(v, p);
}

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Samples strictly above the interpolation rank of percentile p (in
/// [0, 100]) in a sample of n: those that lie beyond it.
inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(std::floor(p / 100.0 * static_cast<double>(n - 1)));
  return n - 1 - rank;
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it is noise from a handful of outliers.
inline constexpr std::size_t kTailSamples = 10;

inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kTailSamples;
}

// ---------------------------------------------------------------------------
// Open-loop arrival schedule

struct Phase {
  double rate_per_s = 0.0;
  double duration_s = 0.0;
};

struct Arrival {
  double due_ms = 0.0;  // offset from the start of the run
  int phase = 0;
};

/// Poisson arrivals: exponential inter-arrival gaps at each phase's rate,
/// phases back to back. A pure function of (phases, seed).
inline std::vector<Arrival> poisson_schedule(const std::vector<Phase>& phases,
                                             std::uint64_t seed) {
  netcut::util::Rng rng(netcut::util::derive_seed(seed, "perfbench/arrivals"));
  std::vector<Arrival> out;
  double phase_start = 0.0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const double end = phase_start + phases[p].duration_s * 1000.0;
    double t = phase_start;
    while (true) {
      t += -std::log(1.0 - rng.uniform()) * 1000.0 / phases[p].rate_per_s;
      if (t >= end) break;
      out.push_back({t, static_cast<int>(p)});
    }
    phase_start = end;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Request conservation

/// Every submitted id (0 .. submitted-1) must end exactly once, either shed
/// at admission or served: submitted == shed + served, no id lost, none
/// duplicated. Returns the violations found (empty when conserved).
inline std::vector<std::string> conservation_violations(
    std::size_t submitted, const std::vector<std::uint64_t>& shed_ids,
    const std::vector<std::uint64_t>& served_ids) {
  std::vector<std::string> problems;
  if (shed_ids.size() + served_ids.size() != submitted)
    problems.push_back("submitted " + std::to_string(submitted) + " != shed " +
                       std::to_string(shed_ids.size()) + " + served " +
                       std::to_string(served_ids.size()));
  std::vector<int> seen(submitted, 0);
  for (const auto* ids : {&shed_ids, &served_ids})
    for (std::uint64_t id : *ids) {
      if (id >= submitted) {
        problems.push_back("unknown id " + std::to_string(id));
        continue;
      }
      if (++seen[id] == 2) problems.push_back("id " + std::to_string(id) + " ended twice");
    }
  for (std::size_t id = 0; id < submitted; ++id)
    if (seen[id] == 0) problems.push_back("id " + std::to_string(id) + " never ended");
  return problems;
}

// ---------------------------------------------------------------------------
// Spans

/// Spans recorded from the benchmark's own code around calls into one
/// module of the program. Kept in memory; written out once at the end.
class Trace {
 public:
  struct Span {
    std::string name;  // "<module>.<call>"
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  explicit Trace(Clock::time_point epoch) : epoch_(epoch) {}

  void add(std::string name, Clock::time_point start, Clock::time_point end) {
    spans_.push_back({std::move(name), ms_between(epoch_, start), ms_between(epoch_, end)});
  }

  /// Runs fn inside a span and returns its result.
  template <typename F>
  auto span(const std::string& name, F&& fn) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(name, t0, Clock::now());
    } else {
      auto r = fn();
      add(name, t0, Clock::now());
      return r;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed span time per name, ms.
  std::map<std::string, double> totals_ms() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += s.end_ms - s.start_ms;
    return out;
  }

  /// Summed time of the spans whose name starts with `prefix`, ms.
  double total_ms_with_prefix(const std::string& prefix) const {
    double ms = 0.0;
    for (const Span& s : spans_)
      if (s.name.compare(0, prefix.size(), prefix) == 0) ms += s.end_ms - s.start_ms;
    return ms;
  }

  /// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}%s\n",
                   s.name.c_str(), s.start_ms * 1000.0, (s.end_ms - s.start_ms) * 1000.0,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// JSON

/// Shortest representation that round-trips: every digit as measured.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
