#include "app/control_loop.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/cascade.hpp"
#include "ml/metrics.hpp"

namespace netcut::app {

constexpr double kReachDurationMs = 1500.0;  // hand leaves rest -> contact
constexpr double kFramePeriodMs = 50.0;      // palm camera at 20 fps
constexpr double kActuationTimeMs = 300.0;   // hand needs this long to form a grasp
constexpr double kClassifierDeadlineMs = 0.9;

ControlLoop::ControlLoop(std::vector<TrnOption> options, const EmgClassifier& emg,
                         const data::EmgGenerator& emg_gen, ControlLoopConfig config,
                         WatchdogConfig watchdog, const hw::FaultModel* faults)
    : options_(std::move(options)),
      emg_(emg),
      emg_gen_(emg_gen),
      config_(config),
      watchdog_(watchdog),
      faults_(faults) {
  if (options_.empty()) throw std::invalid_argument("ControlLoop: no TRN options");
  for (std::size_t i = 0; i < options_.size(); ++i) {
    const TrnOption& o = options_[i];
    if (o.latency_ms <= 0) throw std::invalid_argument("ControlLoop: bad latency");
    if (o.vision == nullptr) throw std::invalid_argument("ControlLoop: null classifier");
    if (o.cascade.enabled) {
      if (o.cascade.escalate_vision == nullptr)
        throw std::invalid_argument("ControlLoop: cascade needs an escalation classifier");
      if (o.cascade.escalate_delta_ms <= 0)
        throw std::invalid_argument("ControlLoop: bad escalation delta");
      if (o.cascade.thresholds.empty())
        throw std::invalid_argument("ControlLoop: cascade needs thresholds");
      for (std::size_t j = 0; j < o.cascade.thresholds.size(); ++j) {
        if (o.cascade.thresholds[j] < 0)
          throw std::invalid_argument("ControlLoop: negative cascade threshold");
        if (j > 0 && o.cascade.thresholds[j] >= o.cascade.thresholds[j - 1])
          throw std::invalid_argument(
              "ControlLoop: cascade thresholds must be strictly decreasing");
      }
      for (std::size_t j = 0; j < o.cascade.thresholds.size(); ++j) ladder_.push_back({i, j});
    } else {
      ladder_.push_back({i, 0});
    }
  }
  if (watchdog_.window <= 0) throw std::invalid_argument("ControlLoop: bad watchdog window");
}

double ControlLoop::rung_nominal_ms(std::size_t r) const {
  const auto& [opt, thr] = ladder_[r];
  const TrnOption& o = options_[opt];
  if (o.cascade.enabled && o.cascade.thresholds[thr] > 0)
    return o.latency_ms + o.cascade.escalate_delta_ms;
  return o.latency_ms;
}

ControlLoopReport ControlLoop::run(const data::HandsDataset& dataset) {
  util::Rng rng(util::derive_seed(config_.seed, "control-loop"));
  ControlLoopReport report;

  const double decision_time = kReachDurationMs - kActuationTimeMs;
  int total_frames = 0, total_missed = 0;
  int correct = 0;
  double sim_sum = 0.0;

  // Device degradation schedule. The stream has its own RNG, so the frame
  // RNG below draws in exactly the legacy order whether or not faults are
  // active — fault injection never perturbs which images an episode sees.
  const hw::FaultModel& fault_model = faults_ ? *faults_ : hw::FaultModel::global();
  hw::FaultStream fault_stream;
  if (fault_model.active()) fault_stream = fault_model.stream("control-loop");

  // Watchdog policy; persists across episodes (the device does not cool
  // down because a reach ended). It walks the expanded fallback ladder:
  // threshold rungs within an option first, then the next TRN.
  MissRateWatchdog watchdog(watchdog_, ladder_.size());
  const bool adaptive = watchdog.adaptive();
  int global_frame = 0;
  // Observed device slowdown: EWMA of (frame latency / nominal latency).
  // Late frames still yield a timing; only outright failed runs do not.
  double slowdown = 1.0;
  // Miss rates bracketing the first fallback, for the degradation report.
  bool fell_back = false;
  int pre_frames = 0, pre_missed = 0, post_frames = 0, post_missed = 0;

  // Test images grouped by primary grasp so each episode can stream frames
  // of its intent object.
  std::vector<std::vector<const data::Sample*>> by_class(data::kGraspCount);
  for (const data::Sample& s : dataset.test())
    by_class[static_cast<std::size_t>(static_cast<int>(s.primary))].push_back(&s);
  for (const auto& v : by_class)
    if (v.empty()) throw std::invalid_argument("ControlLoop: test split missing a class");

  for (int ep = 0; ep < config_.episodes; ++ep) {
    EpisodeResult er;
    er.intent = static_cast<data::GraspType>(ep % data::kGraspCount);
    const auto& pool = by_class[static_cast<std::size_t>(static_cast<int>(er.intent))];

    EvidenceAccumulator acc(data::kGraspCount);
    for (double t = 0.0; t <= decision_time; t += kFramePeriodMs) {
      // Visual frame: random test image of the intent object.
      const data::Sample& frame =
          *pool[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
      ++total_frames;

      const std::size_t cur = watchdog.current();
      const std::size_t opt_i = ladder_[cur].first;
      const TrnOption& opt = options_[opt_i];

      // Cascade rung: stage-1 prediction first, escalate when the margin is
      // below the rung's threshold AND the nominal (pre-jitter) two-stage
      // time still fits the frame deadline — the serving layer's slack rule.
      tensor::Tensor stage1;
      bool escalated = false;
      if (opt.cascade.enabled) {
        stage1 = opt.vision->predict(frame.image);
        escalated = core::softmax_margin(stage1) < opt.cascade.thresholds[ladder_[cur].second] &&
                    opt.latency_ms + opt.cascade.escalate_delta_ms <=
                        kClassifierDeadlineMs;
      }

      // Per-frame latency jitter around the measured device latency, scaled
      // by whatever the fault schedule is doing to the device right now. A
      // failed run means the frame produced no usable inference at all. An
      // escalation charges its delta under the *same* realized jitter and
      // fault multiplier — no extra RNG draws, so the frame stream stays
      // aligned with cascade-free configurations.
      const double jitter = rng.lognormal(0.0, 0.015);
      double latency = opt.latency_ms * jitter;
      hw::RunFault fault;
      if (fault_stream.active()) fault = fault_stream.next(global_frame);
      latency *= fault.multiplier;
      if (escalated) latency += opt.cascade.escalate_delta_ms * jitter * fault.multiplier;
      const double nominal =
          opt.latency_ms + (escalated ? opt.cascade.escalate_delta_ms : 0.0);
      if (!fault.failed) slowdown += kSlowdownAlpha * (latency / nominal - slowdown);
      const bool missed = fault.failed || latency > kClassifierDeadlineMs;
      if (escalated) ++report.frames_escalated;
      if (missed) {
        ++er.frames_missed;
        ++total_missed;
      } else {
        if (escalated)
          acc.observe(opt.cascade.escalate_vision->predict(frame.image),
                      opt.cascade.escalate_vision->reliability());
        else
          acc.observe(opt.cascade.enabled ? stage1 : opt.vision->predict(frame.image),
                      opt.vision->reliability());
        ++er.frames_used;
      }
      if (fell_back) {
        ++post_frames;
        post_missed += missed ? 1 : 0;
      } else {
        ++pre_frames;
        pre_missed += missed ? 1 : 0;
      }

      // EMG window for the same intent arrives every frame.
      acc.observe(emg_.predict(emg_gen_.sample(er.intent, rng)), emg_.reliability());

      if (adaptive) {
        // The watchdog owns the window/hysteresis policy; the loop supplies
        // the one fact only it knows — whether the next-slower rung (a more
        // permissive threshold, or the next TRN up) is predicted to fit the
        // deadline under the observed slowdown.
        const bool slower_fits =
            cur > 0 && rung_nominal_ms(cur - 1) * slowdown <=
                           kRecoverHeadroom * kClassifierDeadlineMs;
        const MissRateWatchdog::Decision dec = watchdog.observe(missed, slower_fits);
        if (dec.action == MissRateWatchdog::Action::kFallBack) {
          report.switches.push_back({ep, t, cur, cur + 1, dec.window_miss_rate});
          fell_back = true;
        } else if (dec.action == MissRateWatchdog::Action::kRecover) {
          report.switches.push_back({ep, t, cur, cur - 1, dec.window_miss_rate});
        }
      }
      ++global_frame;
    }

    er.decision = acc.decision();
    tensor::Tensor intent_label = data::make_label(er.intent, rng, 0.0);
    er.angular_similarity = ml::angular_similarity(er.decision, intent_label);
    int pred_top1 = 0, true_top1 = 0;
    for (int c = 1; c < data::kGraspCount; ++c) {
      if (er.decision[c] > er.decision[pred_top1]) pred_top1 = c;
      if (intent_label[c] > intent_label[true_top1]) true_top1 = c;
    }
    er.top1_correct = pred_top1 == true_top1;
    if (er.top1_correct) ++correct;
    sim_sum += er.angular_similarity;
    report.episodes.push_back(std::move(er));
  }

  const double n = static_cast<double>(report.episodes.size());
  report.mean_angular_similarity = sim_sum / n;
  report.top1_accuracy = static_cast<double>(correct) / n;
  report.deadline_miss_rate =
      total_frames > 0 ? static_cast<double>(total_missed) / total_frames : 0.0;
  double frames = 0.0;
  for (const EpisodeResult& er : report.episodes) frames += er.frames_used;
  report.mean_frames_used = frames / n;
  report.final_rung = watchdog.current();
  report.final_option = ladder_[report.final_rung].first;
  report.pre_fallback_miss_rate =
      pre_frames > 0 ? static_cast<double>(pre_missed) / pre_frames : 0.0;
  report.post_fallback_miss_rate =
      post_frames > 0 ? static_cast<double>(post_missed) / post_frames
                      : report.pre_fallback_miss_rate;
  return report;
}

}  // namespace netcut::app
