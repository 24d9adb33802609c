// Fault-injection schedule + self-healing measurement checks: spec parsing,
// grammar fuzzing and format/parse round-trips, per-stream determinism,
// bit-identical clean paths, MAD trimming under spikes and thermal
// throttles, retry accounting, and the estimator's low-confidence row
// repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/lab.hpp"
#include "hw/faults.hpp"
#include "hw/measure.hpp"
#include "hw/profiler.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/norm.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "zoo/zoo.hpp"

namespace netcut::hw {
namespace {

using nn::Graph;

bool env_faults_active() {
  const char* env = std::getenv("NETCUT_FAULTS");
  return env != nullptr && *env != '\0' && std::string(env) != "off";
}

Graph conv_bn_relu_chain(int blocks) {
  Graph g;
  int x = g.add_input(tensor::Shape::chw(3, 32, 32));
  int c = 3;
  for (int b = 0; b < blocks; ++b) {
    x = g.add(std::make_unique<nn::Conv2D>(c, 16, 3, 1, -1, false), {x},
              "conv" + std::to_string(b));
    x = g.add(std::make_unique<nn::BatchNorm>(16), {x}, "bn" + std::to_string(b));
    x = g.add(std::make_unique<nn::ReLU>(false), {x}, "relu" + std::to_string(b));
    c = 16;
  }
  return g;
}

TEST(FaultSpec, ParsesFullGrammar) {
  const FaultConfig c =
      parse_fault_spec("throttle=2.5@200~400,spike=0.02x6,burst=0.004x8x3,drop=0.01,seed=7");
  EXPECT_TRUE(c.enabled);
  EXPECT_DOUBLE_EQ(c.throttle_mult, 2.5);
  EXPECT_EQ(c.throttle_start, 200);
  EXPECT_DOUBLE_EQ(c.throttle_decay, 400.0);
  EXPECT_DOUBLE_EQ(c.spike_prob, 0.02);
  EXPECT_DOUBLE_EQ(c.spike_mult, 6.0);
  EXPECT_DOUBLE_EQ(c.burst_prob, 0.004);
  EXPECT_EQ(c.burst_len, 8);
  EXPECT_DOUBLE_EQ(c.burst_mult, 3.0);
  EXPECT_DOUBLE_EQ(c.drop_prob, 0.01);
  EXPECT_EQ(c.seed, 7u);
}

TEST(FaultSpec, EmptyAndOffDisable) {
  EXPECT_FALSE(parse_fault_spec("").enabled);
  EXPECT_FALSE(parse_fault_spec("off").enabled);
}

TEST(FaultSpec, MalformedClausesThrow) {
  EXPECT_THROW(parse_fault_spec("throttle=abc"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("spike=0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("bananas"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("drop=2.0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash=2"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("hang=1@2~0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("flaky=1x1.5"), std::invalid_argument);
}

TEST(FaultSpec, DiagnosticsAreOneLineAndNameTheVariable) {
  const char* bad[] = {"throttle=abc", "spike=0.5",    "bananas",     "drop=2.0",
                       "burst=0.1x2",  "spike=-0.1x2", "throttle=0.5@1~1",
                       "crash=-1@5",   "hang=1@2",     "flaky=2"};
  for (const char* spec : bad) {
    try {
      parse_fault_spec(spec);
      ADD_FAILURE() << "'" << spec << "' should not parse";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.find('\n'), std::string::npos) << spec << ": " << msg;
      EXPECT_EQ(msg.rfind("NETCUT_FAULTS:", 0), 0u) << spec << ": " << msg;
    }
  }
}

// Property: any token soup either parses or throws std::invalid_argument —
// never crashes, never throws anything else. The generator samples from the
// grammar's own alphabet (keys, separators, digits) so a large fraction of
// inputs are near-misses of valid clauses rather than trivially rejected
// noise.
TEST(FaultSpec, FuzzedTokenSoupNeverCrashes) {
  const char* tokens[] = {"throttle", "spike", "burst",  "drop", "seed", "off", "=",
                          ",",        "@",     "~",      "x",    "0",    "1",   "2.5",
                          "0.02",     "-1",    "1e300",  "nan",  "inf",  ".",   "e",
                          "0x8",      "@2~",   "=0.1x6", "",     "crash", "hang",
                          "flaky",    "=2@5",  "x0.3"};
  constexpr int kCases = 2000;
  util::Rng rng(20260806);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    std::string spec;
    const int pieces = rng.uniform_int(0, 12);
    for (int p = 0; p < pieces; ++p)
      spec += tokens[rng.uniform_int(0, static_cast<int>(std::size(tokens)) - 1)];
    try {
      const FaultConfig c = parse_fault_spec(spec);
      // Whatever parsed must survive a format -> parse round-trip.
      EXPECT_EQ(parse_fault_spec(format_fault_spec(c)), c) << "spec: " << spec;
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;  // the only acceptable failure mode
    }
  }
  // The token alphabet must actually exercise both outcomes.
  EXPECT_GT(parsed, kCases / 20);
  EXPECT_GT(rejected, kCases / 20);
}

// Property: every valid spec round-trips — parse -> format -> parse yields
// an identical config. Randomized over the full grammar.
TEST(FaultSpec, ValidSpecsRoundTripThroughFormat) {
  util::Rng rng(424242);
  for (int i = 0; i < 500; ++i) {
    std::string spec;
    auto clause = [&](const std::string& text) {
      if (!spec.empty()) spec += ',';
      spec += text;
    };
    if (rng.chance(0.5))
      clause("throttle=" + std::to_string(rng.uniform(1.0, 4.0)) + "@" +
             std::to_string(rng.uniform_int(0, 500)) + "~" +
             std::to_string(rng.uniform(1.0, 600.0)));
    if (rng.chance(0.5))
      clause("spike=" + std::to_string(rng.uniform(0.0, 1.0)) + "x" +
             std::to_string(rng.uniform(1.0, 10.0)));
    if (rng.chance(0.5))
      clause("burst=" + std::to_string(rng.uniform(0.0, 1.0)) + "x" +
             std::to_string(rng.uniform_int(1, 32)) + "x" +
             std::to_string(rng.uniform(1.0, 8.0)));
    if (rng.chance(0.5)) clause("drop=" + std::to_string(rng.uniform(0.0, 1.0)));
    if (rng.chance(0.5))
      clause("crash=" + std::to_string(rng.uniform_int(0, 15)) + "@" +
             std::to_string(rng.uniform_int(0, 5000)));
    if (rng.chance(0.5))
      clause("hang=" + std::to_string(rng.uniform_int(0, 15)) + "@" +
             std::to_string(rng.uniform_int(0, 5000)) + "~" +
             std::to_string(rng.uniform(1.0, 200.0)));
    if (rng.chance(0.5))
      clause("flaky=" + std::to_string(rng.uniform_int(0, 15)) + "x" +
             std::to_string(rng.uniform(0.0, 1.0)));
    if (rng.chance(0.5)) clause("seed=" + std::to_string(rng.uniform_int(0, 1 << 30)));

    const FaultConfig once = parse_fault_spec(spec);
    const std::string canonical = format_fault_spec(once);
    const FaultConfig twice = parse_fault_spec(canonical);
    EXPECT_EQ(once, twice) << "spec: '" << spec << "' canonical: '" << canonical << "'";
    // format is a fixed point: canonical specs format back to themselves.
    EXPECT_EQ(format_fault_spec(twice), canonical);
  }
  EXPECT_EQ(format_fault_spec(parse_fault_spec("")), "off");
  EXPECT_EQ(format_fault_spec(parse_fault_spec("off")), "off");
}

TEST(FaultStream, DeterministicPerLabelAndDecorrelatedAcrossLabels) {
  const FaultModel model(parse_fault_spec("spike=0.2x4,drop=0.1,seed=11"));
  FaultStream a = model.stream("measure/0");
  FaultStream b = model.stream("measure/0");
  FaultStream c = model.stream("measure/1");
  int diffs = 0;
  for (int i = 0; i < 200; ++i) {
    const RunFault fa = a.next(i), fb = b.next(i), fc = c.next(i);
    EXPECT_DOUBLE_EQ(fa.multiplier, fb.multiplier);
    EXPECT_EQ(fa.failed, fb.failed);
    if (fa.failed != fc.failed || fa.multiplier != fc.multiplier) ++diffs;
  }
  EXPECT_GT(diffs, 0);  // different labels draw different schedules
}

TEST(FaultStream, ThrottleDecaysBackToUnity) {
  FaultConfig c;
  c.enabled = true;
  c.throttle_mult = 2.0;
  c.throttle_start = 10;
  c.throttle_decay = 5.0;
  FaultStream s(c, 99);
  EXPECT_DOUBLE_EQ(s.next(0).multiplier, 1.0);   // before the event
  EXPECT_DOUBLE_EQ(s.next(10).multiplier, 2.0);  // at onset
  const double late = s.next(60).multiplier;     // ten e-foldings later
  EXPECT_NEAR(late, 1.0, 1e-4);
}

TEST(Measure, CleanPathBitIdenticalToExplicitlyDisabled) {
  if (env_faults_active()) GTEST_SKIP() << "NETCUT_FAULTS active; clean path untestable";
  DeviceModel dev;
  const Graph g = conv_bn_relu_chain(2);
  MeasureConfig plain;  // faults=nullptr -> global (disabled: env unset)
  MeasureConfig pinned;
  pinned.faults = &FaultModel::disabled();
  LatencyMeasurer a(plain), b(pinned);
  const Measurement ma = a.measure(dev.network_latency_ms(g, Precision::kInt8, true));
  const Measurement mb = b.measure(dev.network_latency_ms(g, Precision::kInt8, true));
  EXPECT_DOUBLE_EQ(ma.mean_ms, mb.mean_ms);
  EXPECT_DOUBLE_EQ(ma.stdev_ms, mb.stdev_ms);
  EXPECT_EQ(ma.runs, mb.runs);
  EXPECT_EQ(ma.outliers_rejected, 0);
  EXPECT_DOUBLE_EQ(ma.confidence, 1.0);
}

TEST(Measure, CleanLoopIsThePlainProtocol) {
  // Without a schedule the self-healing loop runs on an inert fault stream
  // and trims nothing: a measurement is the plain 200 warm-up + 800 timed
  // runs bit for bit, and a profile row the plain per-run fma chain.
  DeviceModel dev;
  const Graph g = conv_bn_relu_chain(2);
  MeasureConfig mc;
  mc.noise_sigma = 0.3;  // heavy lognormal tails: trimming would cut some
  mc.faults = &FaultModel::disabled();
  LatencyMeasurer meas(mc);
  ProfilerConfig pc;
  pc.noise_sigma = 0.5;
  pc.faults = &FaultModel::disabled();
  LayerProfiler prof(pc);
  const double truth = dev.network_latency_ms(g, Precision::kInt8, true);
  const std::vector<KernelCost> costs = dev.kernel_costs(g, Precision::kInt8, true);
  const LatencyTable table =
      prof.profile("chain", meas.measure(truth).mean_ms, costs);  // measure/0

  util::Rng rng(util::derive_seed(kMeasureSeed, "measure/0"));
  for (int i = 0; i < kWarmupRuns; ++i) meas.simulate_run_ms(truth, i, rng);
  std::vector<double> samples;
  for (int i = 0; i < kTimedRuns; ++i)
    samples.push_back(meas.simulate_run_ms(truth, kWarmupRuns + i, rng));
  EXPECT_EQ(table.end_to_end_ms, util::mean(samples));

  util::Rng prng(util::derive_seed(kProfilerSeed, "profiler/0"));
  ASSERT_EQ(table.layers.size(), costs.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (costs[i].fused_away) continue;
    const double event_ms = costs[i].latency_ms + kEventOverheadUs * 1e-3;
    double sum = 0.0;
    for (int r = 0; r < kProfileRuns; ++r)
      sum = std::fma(event_ms, prng.lognormal(0.0, pc.noise_sigma), sum);
    EXPECT_DOUBLE_EQ(table.layers[i].latency_ms, sum / kProfileRuns) << costs[i].name;
    EXPECT_EQ(table.layers[i].confidence, 1.0);
  }
}

TEST(Measure, TrimmedMeanSurvivesSpikes) {
  DeviceModel dev;
  const Graph g = conv_bn_relu_chain(2);
  const double truth = dev.network_latency_ms(g, Precision::kInt8, true);

  MeasureConfig clean_cfg;
  clean_cfg.faults = &FaultModel::disabled();
  LatencyMeasurer clean(clean_cfg);
  const double clean_err = std::abs(clean.measure(truth).mean_ms - truth);

  const FaultModel spiky(parse_fault_spec("spike=0.05x8,seed=3"));
  MeasureConfig faulty_cfg;
  faulty_cfg.faults = &spiky;
  LatencyMeasurer faulty(faulty_cfg);
  const Measurement m = faulty.measure(truth);

  // Spikes are rejected, not averaged in: the trimmed mean stays within
  // twice the fault-free protocol error (floored at 1% of truth).
  EXPECT_LE(std::abs(m.mean_ms - truth), std::max(2.0 * clean_err, 0.01 * truth));
  EXPECT_GT(m.outliers_rejected, 0);
  EXPECT_LT(m.confidence, 1.0);
  EXPECT_GT(m.confidence, 0.85);
}

TEST(Measure, LateThermalThrottleIsTrimmed) {
  DeviceModel dev;
  const Graph g = conv_bn_relu_chain(2);
  const double truth = dev.network_latency_ms(g, Precision::kInt8, true);
  // Throttle hits after run 900: the last ~100 timed runs ramp to 3x.
  const FaultModel hot(parse_fault_spec("throttle=3.0@900~30,seed=5"));
  MeasureConfig mc;
  mc.faults = &hot;
  LatencyMeasurer meas(mc);
  const Measurement m = meas.measure(truth);
  EXPECT_GT(m.outliers_rejected, 10);
  EXPECT_NEAR(m.mean_ms, truth, truth * 0.03);
}

TEST(Measure, DroppedRunsAreRetriedWithAccounting) {
  DeviceModel dev;
  const Graph g = conv_bn_relu_chain(1);
  const FaultModel droppy(parse_fault_spec("drop=0.3,seed=21"));
  MeasureConfig mc;
  mc.faults = &droppy;
  LatencyMeasurer meas(mc);
  const Measurement m = meas.measure(dev.network_latency_ms(g, Precision::kInt8, true));
  EXPECT_GT(m.retries, 0);
  EXPECT_LE(m.runs, 800);
  EXPECT_GT(m.confidence, 0.9);  // retries recover nearly every run
  EXPECT_GT(m.mean_ms, 0.0);
}

TEST(Measure, AllRunsFailingThrows) {
  DeviceModel dev;
  const Graph g = conv_bn_relu_chain(1);
  const FaultModel dead(parse_fault_spec("drop=1.0,seed=1"));
  MeasureConfig mc;
  mc.faults = &dead;
  mc.max_retries = 1;
  LatencyMeasurer meas(mc);
  EXPECT_THROW(meas.measure(dev.network_latency_ms(g, Precision::kInt8, true)),
               std::runtime_error);
}

TEST(Profiler, ConfidenceDropsUnderDrops) {
  DeviceModel dev;
  const Graph g = conv_bn_relu_chain(2);
  const double truth = dev.network_latency_ms(g, Precision::kInt8, true);
  const std::vector<KernelCost> costs = dev.kernel_costs(g, Precision::kInt8, true);

  MeasureConfig clean_mc;
  clean_mc.faults = &FaultModel::disabled();
  LatencyMeasurer clean_meas(clean_mc);
  ProfilerConfig clean_pc;
  clean_pc.faults = &FaultModel::disabled();
  LayerProfiler clean_prof(clean_pc);
  const LatencyTable clean_t =
      clean_prof.profile("chain", clean_meas.measure(truth).mean_ms, costs);
  for (const ProfiledLayer& l : clean_t.layers) EXPECT_DOUBLE_EQ(l.confidence, 1.0);

  const FaultModel droppy(parse_fault_spec("drop=0.5,seed=9"));
  MeasureConfig mc;
  mc.faults = &FaultModel::disabled();  // end-to-end reference stays clean
  LatencyMeasurer meas(mc);
  ProfilerConfig pc;
  pc.faults = &droppy;
  pc.max_retries = 0;  // no retry budget: drops translate into confidence
  LayerProfiler prof(pc);
  const LatencyTable t = prof.profile("chain", meas.measure(truth).mean_ms, costs);
  int degraded = 0;
  for (const ProfiledLayer& l : t.layers)
    if (!l.fused_away && l.confidence < 1.0) ++degraded;
  EXPECT_GT(degraded, 0);
}

TEST(ProfilerEstimator, RepairsLowConfidenceRowsWithWarning) {
  const zoo::NetId base = zoo::NetId::kMobileNetV1_025;

  core::LabConfig clean_cfg;
  clean_cfg.measure.faults = &FaultModel::disabled();
  clean_cfg.profiler.faults = &FaultModel::disabled();
  core::LatencyLab clean_lab(clean_cfg);
  core::ProfilerEstimator clean_est(clean_lab);

  // Heavy drops with no retry budget force many rows below the confidence
  // floor; the estimator must interpolate them instead of trusting zeros.
  const FaultModel droppy(parse_fault_spec("drop=0.65,seed=13"));
  core::LabConfig faulty_cfg;
  faulty_cfg.measure.faults = &FaultModel::disabled();
  faulty_cfg.profiler.faults = &droppy;
  faulty_cfg.profiler.max_retries = 0;
  core::LatencyLab faulty_lab(faulty_cfg);
  core::ProfilerEstimator faulty_est(faulty_lab);

  const auto& cuts = clean_lab.blockwise(base);
  const int cut = cuts[cuts.size() / 2];
  const double clean_ms = clean_est.estimate_ms(base, cut);

  testing::internal::CaptureStderr();
  const double faulty_ms = faulty_est.estimate_ms(base, cut);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("low confidence"), std::string::npos);

  EXPECT_GT(faulty_ms, 0.0);
  EXPECT_GT(faulty_ms, clean_ms * 0.5);
  EXPECT_LT(faulty_ms, clean_ms * 2.0);

  // The warning fires once per base, not once per estimate.
  testing::internal::CaptureStderr();
  faulty_est.estimate_ms(base, cuts[cuts.size() / 3]);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

}  // namespace
}  // namespace netcut::hw
