#include "serve/health.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace netcut::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Leaky error score (errors +1, clean batches -1) at which an Up replica
/// is Degraded / a Degraded one is Down.
constexpr int kDegradedErrors = 2;
constexpr int kDownErrors = 5;
}  // namespace

const char* replica_state_name(ReplicaState s) {
  switch (s) {
    case ReplicaState::kUp: return "up";
    case ReplicaState::kDegraded: return "degraded";
    case ReplicaState::kDown: return "down";
    case ReplicaState::kRecovering: return "recovering";
  }
  return "?";
}

HealthMonitor::HealthMonitor(std::size_t workers, HealthConfig config)
    : config_(config), replicas_(workers) {
  if (workers == 0) throw std::invalid_argument("HealthMonitor: no workers");
  if (config_.suspect_after_ms <= 0 || config_.down_after_ms <= config_.suspect_after_ms)
    throw std::invalid_argument(
        "HealthMonitor: want 0 < suspect_after_ms < down_after_ms");
  if (config_.probation_ms <= 0 || config_.warmup_batches < 1)
    throw std::invalid_argument("HealthMonitor: want probation_ms > 0, warmup_batches >= 1");
}

std::size_t HealthMonitor::up_count() const {
  std::size_t n = 0;
  for (const ReplicaHealth& r : replicas_) n += r.state == ReplicaState::kUp ? 1 : 0;
  return n;
}

void HealthMonitor::set_state(std::size_t w, ReplicaState s, double now_ms) {
  ReplicaHealth& r = replicas_[w];
  if (r.state == s) return;
  r.state = s;
  ++r.transitions;
  if (s == ReplicaState::kDown) {
    r.down_since_ms = now_ms;
    r.detected_ms = now_ms;
    r.responsive_since_ms = kInf;
    r.silent_since_ms = kInf;
  }
  if (s == ReplicaState::kRecovering || s == ReplicaState::kUp) {
    r.clean_batches = 0;
    r.error_score = 0;
  }
}

void HealthMonitor::note_progress(std::size_t w, double now_ms) {
  ReplicaHealth& r = replicas_[w];
  r.last_progress_ms = now_ms;
  r.silent_since_ms = kInf;
  r.error_score = std::max(0, r.error_score - 1);
  if (r.state == ReplicaState::kDegraded || r.state == ReplicaState::kRecovering) {
    // Warm-up ramp: only a full run of clean batches re-earns Up (and with
    // it routing + admission capacity). Counting batches, not time, means a
    // flapping replica pays the whole ramp again on every cycle.
    if (++r.clean_batches >= config_.warmup_batches) set_state(w, ReplicaState::kUp, now_ms);
  }
}

void HealthMonitor::note_attempt_blocked(std::size_t w, double now_ms) {
  ReplicaHealth& r = replicas_[w];
  if (r.silent_since_ms == kInf) r.silent_since_ms = now_ms;
}

void HealthMonitor::note_dispatch(std::size_t w, double now_ms) {
  ReplicaHealth& r = replicas_[w];
  r.last_progress_ms = now_ms;
  r.silent_since_ms = kInf;
}

void HealthMonitor::note_error(std::size_t w, double now_ms) {
  ReplicaHealth& r = replicas_[w];
  // An error is a *response*: the replica is alive, just failing. Close the
  // silence window but do not count it as progress.
  r.silent_since_ms = kInf;
  r.clean_batches = 0;
  ++r.error_score;
  if (r.error_score >= kDownErrors) {
    set_state(w, ReplicaState::kDown, now_ms);
  } else if (r.error_score >= kDegradedErrors && r.state == ReplicaState::kUp) {
    set_state(w, ReplicaState::kDegraded, now_ms);
  }
}

bool HealthMonitor::advance(std::size_t w, double now_ms, bool responsive) {
  ReplicaHealth& r = replicas_[w];
  if (r.state == ReplicaState::kUp || r.state == ReplicaState::kDegraded) {
    if (r.silent_since_ms == kInf) return false;
    const double silent = now_ms - r.silent_since_ms;
    if (r.state == ReplicaState::kUp && silent >= config_.suspect_after_ms)
      set_state(w, ReplicaState::kDegraded, now_ms);
    if (r.state == ReplicaState::kDegraded && silent >= config_.down_after_ms) {
      set_state(w, ReplicaState::kDown, now_ms);
      return true;
    }
    return false;
  }
  if (r.state == ReplicaState::kDown) {
    if (!responsive) {
      r.responsive_since_ms = kInf;
      return false;
    }
    if (r.responsive_since_ms == kInf) r.responsive_since_ms = now_ms;
    if (now_ms - r.responsive_since_ms >= config_.probation_ms)
      set_state(w, ReplicaState::kRecovering, now_ms);
  }
  return false;
}

double HealthMonitor::next_event_after(std::size_t w, double now_ms) const {
  const ReplicaHealth& r = replicas_[w];
  if (r.state == ReplicaState::kUp && r.silent_since_ms < kInf) {
    const double suspect = r.silent_since_ms + config_.suspect_after_ms;
    if (suspect > now_ms) return suspect;
    return r.silent_since_ms + config_.down_after_ms;
  }
  if (r.state == ReplicaState::kDegraded && r.silent_since_ms < kInf) {
    const double down = r.silent_since_ms + config_.down_after_ms;
    if (down > now_ms) return down;
  }
  if (r.state == ReplicaState::kDown && r.responsive_since_ms < kInf) {
    const double recover = r.responsive_since_ms + config_.probation_ms;
    if (recover > now_ms) return recover;
  }
  return kInf;
}

WorkerFaultInjector::WorkerFaultInjector(const hw::FaultConfig& config, std::size_t workers)
    : active_(config.enabled && config.targets_workers()),
      config_(config),
      crashed_(workers, 0),
      hang_fired_(workers, 0),
      hang_until_ms_(workers, -kInf) {
  flaky_rng_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    flaky_rng_.emplace_back(
        util::derive_seed(config.seed, "serve/flaky/" + std::to_string(w)));
}

WorkerFaultInjector::Attempt WorkerFaultInjector::on_attempt(std::size_t w, std::int64_t k,
                                                             double now_ms) {
  if (!active_) return Attempt::kServe;
  if (crashed_[w] != 0) return Attempt::kSilent;
  if (config_.crash_worker == static_cast<int>(w) && k >= config_.crash_attempt) {
    crashed_[w] = 1;
    return Attempt::kSilent;
  }
  if (config_.hang_worker == static_cast<int>(w) && hang_fired_[w] == 0 &&
      k >= config_.hang_attempt) {
    hang_fired_[w] = 1;
    hang_until_ms_[w] = now_ms + config_.hang_ms;
  }
  if (now_ms < hang_until_ms_[w]) return Attempt::kSilent;
  if (config_.flaky_worker == static_cast<int>(w) &&
      flaky_rng_[w].chance(config_.flaky_prob))
    return Attempt::kError;
  return Attempt::kServe;
}

bool WorkerFaultInjector::responsive(std::size_t w, double now_ms) const {
  if (!active_) return true;
  if (crashed_[w] != 0) return false;
  return now_ms >= hang_until_ms_[w];
}

double WorkerFaultInjector::next_responsive_ms(std::size_t w, double now_ms) const {
  if (!active_) return kInf;
  if (crashed_[w] != 0) return kInf;
  if (now_ms < hang_until_ms_[w]) return hang_until_ms_[w];
  return kInf;
}

}  // namespace netcut::serve
