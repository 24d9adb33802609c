// End-to-end control loop of the robotic prosthetic hand (Fig 2, Section
// III): during a reach, palm-camera frames and EMG windows stream in; each
// classifier emits a grasp distribution; fusion accumulates evidence; the
// final decision must be ready before contact minus the actuation time.
// Each source is fused at its classifier's measured held-out reliability
// (VisualClassifier::reliability, EmgClassifier::reliability), not at a
// fixed weight: a camera classifier at chance level adds nothing to the
// decision, however many frames it sees, and cannot outvote EMG.
// The visual classifier's per-frame compute budget is the paper's 0.9 ms —
// frames whose (simulated) inference latency exceeds it miss the fusion
// window and are dropped.
//
// The loop can carry a whole Pareto front of TRNs instead of a single
// classifier: a deadline watchdog tracks the miss rate over a sliding
// window of recent frames and, when the device degrades (thermal
// throttling, interference — injected via hw::FaultModel), falls back to
// the next-faster TRN; once the window stays calm long enough it steps
// back toward the preferred network. Cooldown plus a recovery-patience
// hysteresis keep it from flapping between neighbours.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "app/classifier.hpp"
#include "app/fusion.hpp"
#include "app/watchdog.hpp"
#include "core/lab.hpp"
#include "hw/faults.hpp"
#include "hw/measure.hpp"

namespace netcut::app {

/// Episode count and seed. Every reach takes 1500 ms, frames arrive every
/// 50 ms (a 20 fps palm camera), the hand needs 300 ms to form a grasp, and
/// the visual classifier's per-frame deadline is the paper's 0.9 ms (the
/// constants live in control_loop.cpp). Fusion weights are not configured:
/// each source is fused at its classifier's reliability(), measured on
/// held-out data, with no prior that one sensor is noisier.
struct ControlLoopConfig {
  int episodes = 50;
  std::uint64_t seed = 2025;
};

/// Confidence-gated escalation attached to a TrnOption: frames whose
/// stage-1 softmax margin falls below the active threshold re-run through
/// the deeper classifier, paying `escalate_delta_ms` extra. The thresholds
/// vector is a fallback ladder of its own — strictly decreasing, so each
/// step escalates fewer frames and costs less.
struct TrnCascade {
  bool enabled = false;
  /// Deep-stage classifier answering escalated frames; its answers are
  /// fused at its own reliability.
  const VisualClassifier* escalate_vision = nullptr;
  /// Nominal extra latency of an escalation (the delta layers + deep head).
  double escalate_delta_ms = 0.0;
  /// Strictly decreasing escalation thresholds, most permissive first.
  std::vector<double> thresholds;
};

/// One deployable TRN on the latency/accuracy Pareto front. Options are
/// ordered from the preferred (most accurate, slowest) network to the
/// fastest fallback; the watchdog only ever moves one step at a time.
///
/// With a cascade, the option expands into one fallback rung per threshold:
/// the watchdog tightens the escalation threshold (cheaper, less accurate)
/// step by step *before* abandoning the option for the next TRN — the
/// threshold is a third fallback axis between networks.
struct TrnOption {
  std::string name;                          // paper-style "ResNet50/113"
  double latency_ms = 0.0;                   // measured device latency
  const VisualClassifier* vision = nullptr;
  TrnCascade cascade;
};

// WatchdogConfig (shared with the serving layer) lives in app/watchdog.hpp.

/// One watchdog decision, for reporting. `from`/`to` index the fallback
/// ladder the watchdog walks (one rung per cascade threshold, a single rung
/// for a cascade-free option) — identical to option indices when no option
/// carries a cascade.
struct SwitchEvent {
  int episode = 0;
  double time_ms = 0.0;             // reach time within the episode
  std::size_t from = 0;
  std::size_t to = 0;               // fallback-ladder rung indices
  double window_miss_rate = 0.0;    // what triggered the move
};

struct EpisodeResult {
  data::GraspType intent;
  tensor::Tensor decision;      // fused distribution at decision time
  double angular_similarity;    // vs the intent's label distribution
  bool top1_correct;
  int frames_used = 0;
  int frames_missed = 0;        // dropped for missing the compute deadline
};

struct ControlLoopReport {
  std::vector<EpisodeResult> episodes;
  double mean_angular_similarity = 0.0;
  double top1_accuracy = 0.0;
  double deadline_miss_rate = 0.0;   // fraction of frames dropped
  double mean_frames_used = 0.0;
  // Watchdog telemetry (empty / zero when it never intervened).
  std::vector<SwitchEvent> switches;
  std::size_t final_option = 0;  // TRN option index (rung mapped back)
  std::size_t final_rung = 0;    // fallback-ladder rung index
  int frames_escalated = 0;      // frames the cascade sent to the deep stage
  double pre_fallback_miss_rate = 0.0;   // miss rate up to the first switch
  double post_fallback_miss_rate = 0.0;  // miss rate after the first switch
};

class ControlLoop {
 public:
  /// Deadline-adaptive loop over a Pareto front of TRNs, preferred first;
  /// a single option {"", latency_ms, &vision, {}} is the plain loop.
  /// Each option's latency is its classifier's measured device latency
  /// (from the LatencyLab); per-frame jitter is drawn around it. `faults`
  /// injects device degradation (nullptr falls back to the NETCUT_FAULTS
  /// global schedule).
  ControlLoop(std::vector<TrnOption> options, const EmgClassifier& emg,
              const data::EmgGenerator& emg_gen, ControlLoopConfig config,
              WatchdogConfig watchdog = {}, const hw::FaultModel* faults = nullptr);

  ControlLoopReport run(const data::HandsDataset& dataset);

 private:
  /// Nominal per-frame latency of rung `r` (worst case for cascade rungs
  /// that can still escalate: stage 1 plus the full escalation delta).
  double rung_nominal_ms(std::size_t r) const;

  std::vector<TrnOption> options_;
  /// The expanded fallback ladder the watchdog walks: one (option index,
  /// threshold index) rung per cascade threshold, a single rung for
  /// cascade-free options. Identity when no option has a cascade.
  std::vector<std::pair<std::size_t, std::size_t>> ladder_;
  const EmgClassifier& emg_;
  const data::EmgGenerator& emg_gen_;
  ControlLoopConfig config_;
  WatchdogConfig watchdog_;
  const hw::FaultModel* faults_ = nullptr;
};

}  // namespace netcut::app
