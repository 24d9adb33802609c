// Tests of the benchmark's own helpers (harness.hpp): the percentile (the
// shared util::percentile as the benchmark calls it) and its sample-count
// rule, the Poisson schedule, the conservation check, and the span totals
// behind the per-layer shares.
// Exit code 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 101; i >= 1; --i) v.push_back(i);  // unsorted 1..101
  expect(perfbench::percentile(v, 50.0) == 51.0, "p50 of 1..101 is 51");
  expect(perfbench::percentile(v, 90.0) == 91.0, "p90 of 1..101 is 91");
  expect(perfbench::percentile(v, 100.0) == 101.0, "p100 is the maximum");
  expect(perfbench::percentile(v, 0.0) == 1.0, "p0 is the minimum");
  expect(perfbench::percentile({7.0}, 99.0) == 7.0, "single sample");
  expect(perfbench::median({2.0, 4.0}) == 3.0, "median of two samples is their mean, not the minimum");
  expect(perfbench::median({9.0, 1.0, 5.0}) == 5.0, "median of three is the middle one");
  expect(std::isnan(perfbench::percentile({}, 50.0)), "empty sample gives NaN");
}

void test_sample_count_rule() {
  expect(perfbench::samples_beyond(101, 90.0) == 10, "101 samples: 10 beyond p90");
  expect(perfbench::samples_beyond(0, 90.0) == 0, "no samples: none beyond");
  expect(perfbench::samples_beyond(50, 100.0) == 0, "none beyond the maximum");
  expect(perfbench::percentile_supported(92, 90.0), "p90 supported at 92 samples");
  expect(!perfbench::percentile_supported(91, 90.0), "p90 unsupported at 91 samples");
  expect(perfbench::percentile_supported(902, 99.0), "p99 supported at 902 samples");
  expect(!perfbench::percentile_supported(900, 99.0), "p99 unsupported at 900 samples");
  expect(!perfbench::percentile_supported(5, 50.0), "5 samples support not even the median");
}

void test_poisson_schedule() {
  const std::vector<perfbench::Phase> phases = {{300.0, 2.0}, {2000.0, 1.0}};
  const auto a = perfbench::poisson_schedule(phases, 17);
  const auto b = perfbench::poisson_schedule(phases, 17);
  const auto c = perfbench::poisson_schedule(phases, 18);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i)
    same = a[i].due_ms == b[i].due_ms && a[i].phase == b[i].phase;
  expect(same, "same seed gives the identical schedule");
  expect(a.size() != c.size() || a[0].due_ms != c[0].due_ms, "another seed gives another schedule");
  std::size_t steady = 0;
  bool ordered = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    steady += a[i].phase == 0 ? 1 : 0;
    if (i > 0 && a[i].due_ms < a[i - 1].due_ms) ordered = false;
    if (a[i].phase == 0 && a[i].due_ms >= 2000.0) ordered = false;
    if (a[i].phase == 1 && (a[i].due_ms < 2000.0 || a[i].due_ms >= 3000.0)) ordered = false;
  }
  expect(ordered, "arrivals ordered and inside their phase");
  // 600 expected in the steady phase, 2000 in the overload phase (5 sigma).
  expect(std::abs(static_cast<double>(steady) - 600.0) < 125.0, "steady-phase count near rate x duration");
  expect(std::abs(static_cast<double>(a.size() - steady) - 2000.0) < 225.0, "overload count near rate x duration");
}

void test_conservation() {
  using perfbench::conservation_violations;
  expect(conservation_violations(4, {1}, {0, 2, 3}).empty(), "every id ends once: conserved");
  expect(!conservation_violations(4, {1}, {0, 2}).empty(), "a dropped id is flagged");
  expect(!conservation_violations(4, {1}, {0, 2, 3, 3}).empty(), "a duplicated id is flagged");
  expect(!conservation_violations(4, {1, 2}, {0, 2, 3}).empty(), "shed and served both is flagged");
  expect(!conservation_violations(3, {}, {0, 1, 9}).empty(), "an unknown id is flagged");
  expect(conservation_violations(0, {}, {}).empty(), "nothing submitted: conserved");
}

void test_span_prefix_totals() {
  const auto t0 = perfbench::Clock::now();
  perfbench::Trace trace(t0);
  const auto at = [&](double ms) { return t0 + std::chrono::microseconds(static_cast<long>(ms * 1000.0)); };
  trace.add("serve.step", at(0.0), at(2.0));
  trace.add("serve.step", at(5.0), at(6.0));
  trace.add("serve.submit", at(1.0), at(1.5));
  trace.add("nn.forward.a", at(3.0), at(7.0));
  expect(trace.total_ms_with_prefix("serve.step") == 3.0, "spans of one call summed");
  expect(trace.total_ms_with_prefix("serve.") == 3.5, "a module prefix sums its calls");
  expect(trace.total_ms_with_prefix("nn.forward") == 4.0, "a call prefix covers its suffixed names");
  expect(trace.total_ms_with_prefix("core.") == 0.0, "no such call: zero");
}

}  // namespace

int main() {
  test_percentile();
  test_sample_count_rule();
  test_poisson_schedule();
  test_conservation();
  test_span_prefix_totals();
  std::printf("perfbench selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
