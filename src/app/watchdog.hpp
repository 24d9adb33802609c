// MissRateWatchdog: the deadline-breach policy shared by the prosthetic
// control loop and the batched serving layer.
//
// It tracks deadline misses over a sliding window of recent work items.
// When the window's miss rate breaches a threshold it falls back one step
// along a Pareto front of TRN options (preferred/slowest first, fastest
// last); when the window stays calm long enough — and the caller reports
// that the slower option is predicted to fit again — it steps back up.
// Cooldown plus a recovery-patience hysteresis keep it from flapping
// between neighbouring options.
//
// The class is pure policy: it never touches a clock or a network. The
// caller reports one (missed, slower_fits) observation per work item and
// acts on the returned decision. This is exactly the state machine that
// lived inline in ControlLoop::run; the factoring is bit-identical.
#pragma once

#include <cstddef>
#include <vector>

#include "util/ranked_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace netcut::app {

struct WatchdogConfig {
  bool enabled = true;
  int window = 16;                  // sliding window of recent work items
  double breach_miss_rate = 0.50;   // fall back when window miss rate >= this
  double recover_miss_rate = 0.10;  // calm threshold for stepping back up
  int cooldown_frames = 32;         // min items between consecutive switches
  int recover_patience = 48;        // consecutive calm items before recovery
};

/// Stepping back up additionally requires the slower TRN's predicted
/// latency — its nominal latency times the observed device slowdown — to
/// fit within this fraction of the deadline. This is what prevents
/// flapping: under a sustained throttle the window looks calm (the fast
/// fallback is fine) but the slower network still would not fit. The
/// caller owns that prediction and passes the verdict as `slower_fits`.
inline constexpr double kRecoverHeadroom = 0.98;

/// Weight of each new sample in the observed device slowdown, an EWMA of
/// (measured latency / nominal latency) that the control loop and the
/// serving layer both keep to judge whether a slower option fits again.
inline constexpr double kSlowdownAlpha = 0.1;

class MissRateWatchdog {
 public:
  enum class Action { kStay, kFallBack, kRecover };

  struct Decision {
    Action action = Action::kStay;
    double window_miss_rate = 0.0;  // valid once the window has filled
  };

  /// `option_count` is the length of the Pareto front being walked.
  MissRateWatchdog(WatchdogConfig config, std::size_t option_count);

  /// False when disabled or there is nothing to fall back to; callers skip
  /// observe() entirely then (current() stays 0), matching the legacy
  /// single-classifier loop bit-for-bit.
  bool adaptive() const { return config_.enabled && option_count_ > 1; }

  /// Index into the Pareto front currently in service (0 = preferred).
  /// Safe from any thread: the window state is mutex-guarded, so live
  /// reporting (fleet dashboards) may race the serving thread's observe().
  std::size_t current() const {
    util::MutexLock lock(mu_);
    return current_;
  }

  /// Miss rate over the observations currently in the sliding window
  /// (0 while the window is empty, e.g. right after a switch). A live
  /// health signal for dashboards/fleet reports; decisions still act only
  /// on full windows.
  double window_miss_rate() const {
    util::MutexLock lock(mu_);
    return win_count_ > 0 ? static_cast<double>(win_miss_) / static_cast<double>(win_count_)
                          : 0.0;
  }

  const WatchdogConfig& config() const { return config_; }

  /// Record one work item. `missed` is whether it blew its deadline;
  /// `slower_fits` is the caller's prediction that the next-slower option
  /// would meet the deadline under the observed device slowdown (only
  /// consulted while current() > 0). Acts at most one step per call.
  Decision observe(bool missed, bool slower_fits);

  /// External capacity-loss signal (a fleet replica died and this server
  /// must absorb its load): fall back one step *now*, without waiting for
  /// the window to fill with misses. Bypasses the cooldown — the signal is
  /// a hard fact, not a noisy miss-rate estimate — but resets the window
  /// and streaks, so stepping back up still takes the full recovery
  /// patience (no flap when replicas churn). Returns true when a step was
  /// taken (false when disabled or already at the fastest option).
  bool note_capacity_loss();

 private:
  void reset_window() NETCUT_REQUIRES(mu_);

  WatchdogConfig config_;       // immutable after construction
  std::size_t option_count_;    // immutable after construction
  mutable util::RankedMutex mu_{util::rank::kWatchdog, "app/watchdog"};
  std::size_t current_ NETCUT_GUARDED_BY(mu_) = 0;
  std::vector<char> window_ NETCUT_GUARDED_BY(mu_);
  int win_count_ NETCUT_GUARDED_BY(mu_) = 0;
  int win_pos_ NETCUT_GUARDED_BY(mu_) = 0;
  int win_miss_ NETCUT_GUARDED_BY(mu_) = 0;
  // Starts cooled: the first breach acts at once.
  int frames_since_switch_ NETCUT_GUARDED_BY(mu_);
  int calm_streak_ NETCUT_GUARDED_BY(mu_) = 0;
};

}  // namespace netcut::app
