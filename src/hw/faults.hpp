// Deterministic fault injection for the simulated device.
//
// Real embedded GPUs misbehave: thermal throttling inflates latency for
// hundreds of runs, background load produces transient spikes and outlier
// bursts, and timing runs occasionally fail outright. The measurement and
// control-loop layers must survive all of that (NetAdapt treats on-device
// measurements as unreliable first-class signals for the same reason), so
// this module injects those faults *reproducibly*: a schedule is parsed
// from the NETCUT_FAULTS environment variable (or built in code), and each
// measurement stream derives its own seeded RNG from a stable label, so a
// faulty experiment is exactly as bit-reproducible as a clean one.
//
// Spec grammar (comma-separated clauses, all optional):
//   throttle=K@S~D   from run S the latency is multiplied by K, decaying
//                    back to 1 with e-folding D runs (a thermal event)
//   spike=PxM        each run independently spikes by xM with probability P
//   burst=PxLxM      with probability P a burst starts: L consecutive runs
//                    multiplied by xM (sustained interference)
//   drop=P           each run fails outright with probability P (retried by
//                    the self-healing measurement path)
//   seed=N           schedule seed (decorrelated per stream label)
//   off              explicitly disabled (same as an empty spec)
//
// Worker-scoped failure modes (consumed by the fleet's health layer,
// serve/health.hpp; the per-run measurement streams above ignore them, so
// adding one never perturbs a timing number):
//   crash=W@S        fleet worker W dies permanently at its S-th dispatch
//                    attempt (fail-stop: no batch, no heartbeat, ever)
//   hang=W@S~D       worker W goes silent for D ms starting at attempt S
//                    (wedged, then resumes — the recovery path's fault)
//   flaky=WxP        each of worker W's dispatch attempts fails with
//                    probability P (observed errors, drawn from a
//                    per-worker seeded stream)
// Example: NETCUT_FAULTS="throttle=2.0@200~400,spike=0.02x6,drop=0.01"
// Example: NETCUT_FAULTS="crash=2@120,hang=1@40~25,flaky=3x0.2"
//
// With no schedule active every stream is inert (no run fails, every
// multiplier is exactly 1.0) and no consumer trims or reorders its clean
// arithmetic, so clean outputs stay bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace netcut::hw {

struct FaultConfig {
  bool enabled = false;
  // throttle=K@S~D
  double throttle_mult = 1.0;
  int throttle_start = 0;
  double throttle_decay = 300.0;
  // spike=PxM
  double spike_prob = 0.0;
  double spike_mult = 6.0;
  // burst=PxLxM
  double burst_prob = 0.0;
  int burst_len = 8;
  double burst_mult = 3.0;
  // drop=P
  double drop_prob = 0.0;
  // crash=W@S (worker-scoped; -1 = no worker targeted)
  int crash_worker = -1;
  int crash_attempt = 0;
  // hang=W@S~D
  int hang_worker = -1;
  int hang_attempt = 0;
  double hang_ms = 0.0;
  // flaky=WxP
  int flaky_worker = -1;
  double flaky_prob = 0.0;
  std::uint64_t seed = 0xFA017uLL;

  bool operator==(const FaultConfig&) const = default;

  /// True when any worker-scoped clause (crash/hang/flaky) is present.
  bool targets_workers() const {
    return crash_worker >= 0 || hang_worker >= 0 || flaky_worker >= 0;
  }
};

/// Parses the NETCUT_FAULTS grammar above. Empty or "off" yields a
/// disabled config; malformed clauses throw std::invalid_argument.
FaultConfig parse_fault_spec(std::string_view spec);

/// The inverse of parse_fault_spec: a canonical spec string such that
/// parse_fault_spec(format_fault_spec(c)) == c for every config c that
/// parse_fault_spec can produce (doubles are printed round-trip exact). A
/// disabled config formats as "off"; an enabled one spells out every clause
/// so no field is left to defaulting.
std::string format_fault_spec(const FaultConfig& config);

/// What the schedule does to one timing run.
struct RunFault {
  double multiplier = 1.0;  // latency scale (throttle * spike * burst)
  bool failed = false;      // the run produced no timing at all
};

/// Per-measurement-stream fault state: owns a seeded RNG plus the burst
/// state machine. One stream per measurement, derived from a stable label,
/// keeps fault schedules reproducible and decorrelated across streams.
class FaultStream {
 public:
  FaultStream() = default;  // inert: every run is clean
  FaultStream(const FaultConfig& config, std::uint64_t stream_seed);

  /// Faults for the run at `run_index` (0 = first warm-up run). Draws are
  /// consumed in a fixed order (drop, spike, burst) on every call, so the
  /// schedule at run k does not depend on what earlier outcomes were used
  /// for. Retrying a failed run is modeled by calling next() again at the
  /// same index.
  RunFault next(int run_index);

  bool active() const { return config_.enabled; }

 private:
  FaultConfig config_;
  util::Rng rng_{0};
  int burst_left_ = 0;
};

/// An immutable fault schedule. The process-wide schedule comes from
/// NETCUT_FAULTS (parsed once); components take an optional FaultModel
/// pointer and fall back to the global one, so tests can pin faults on or
/// off explicitly regardless of the environment.
class FaultModel {
 public:
  FaultModel() = default;  // disabled
  explicit FaultModel(FaultConfig config) : config_(config) {}

  /// The schedule parsed from NETCUT_FAULTS (disabled when unset/empty).
  /// Throws std::invalid_argument on first use if the spec is malformed.
  static const FaultModel& global();

  /// A shared always-disabled instance for explicit opt-out.
  static const FaultModel& disabled();

  bool active() const { return config_.enabled; }
  const FaultConfig& config() const { return config_; }

  /// A deterministic per-stream injector; `label` must be stable across
  /// runs (e.g. "measure/3").
  FaultStream stream(std::string_view label) const;

 private:
  FaultConfig config_;
};

}  // namespace netcut::hw
