#include "serve/server.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace netcut::serve {

namespace {
/// Timing-only escalation wish for one request: a Bernoulli(p) draw keyed
/// on (cascade seed, request id) alone, so it is stable across batch
/// boundaries, retries, and work stealing.
bool timing_wish(std::uint64_t cascade_seed, std::uint64_t id, double p) {
  util::Rng rng(util::derive_seed(cascade_seed, std::to_string(id)));
  return rng.uniform() < p;
}
}  // namespace

double expected_latency_ms(const ServeOption& opt, int n) {
  double t = opt.latency_ms(n);
  if (opt.cascade.enabled) {
    const int k = static_cast<int>(std::ceil(opt.cascade.p_escalate * n));
    if (k > 0) t += opt.cascade.stage2_ms(k);
  }
  return t;
}

BatchServer::BatchServer(std::vector<ServeOption> options, RequestQueue& queue,
                         ServeConfig config)
    : options_(std::move(options)),
      queue_(queue),
      config_(config),
      former_(BatcherConfig{config.max_batch},
              [this](int n) { return expected_latency_ms(options_[watchdog_.current()], n); }),
      watchdog_(config.watchdog, options_.empty() ? 1 : options_.size()),
      cascade_seed_(util::derive_seed(config.seed, "serve/cascade")),
      rng_(util::derive_seed(config.seed, "serve/service")) {
  if (options_.empty()) throw std::invalid_argument("BatchServer: no TRN options");
  for (const ServeOption& o : options_) {
    if (!o.latency_ms) throw std::invalid_argument("BatchServer: null latency model");
    if (o.cascade.enabled) {
      if (!o.cascade.stage2_ms)
        throw std::invalid_argument("BatchServer: cascade option needs a stage-2 latency model");
      if (o.cascade.p_escalate < 0.0 || o.cascade.p_escalate > 1.0)
        throw std::invalid_argument("BatchServer: cascade p_escalate must be in [0, 1]");
      if (o.cascade.threshold < 0.0)
        throw std::invalid_argument("BatchServer: cascade threshold must be >= 0");
      if (o.net != nullptr && o.cascade.trn == nullptr)
        throw std::invalid_argument(
            "BatchServer: compute option with a cascade needs cascade.trn");
    }
  }
  if (config_.nominal_deadline_ms <= 0)
    throw std::invalid_argument("BatchServer: bad nominal deadline");
  const hw::FaultModel& model =
      config_.faults != nullptr ? *config_.faults : hw::FaultModel::global();
  if (model.active()) fault_stream_ = model.stream("serve");
}

void BatchServer::note_capacity_loss() {
  util::MutexLock lock(mu_);
  const std::size_t at = watchdog_.current();
  if (watchdog_.note_capacity_loss())
    stats_.switches.push_back({batch_counter_, at, at + 1, watchdog_.window_miss_rate()});
}

std::vector<Completion> BatchServer::step(double now_ms) {
  const std::size_t cur = watchdog_.current();
  std::vector<Request> batch = queue_.take([&](const Request& head, std::size_t pending) {
    return former_.choose(now_ms, head.deadline_ms, pending);
  });
  if (batch.empty()) return {};
  const int n = static_cast<int>(batch.size());
  const ServeOption& opt = options_[cur];
  const bool cascade_compute = opt.cascade.enabled && opt.cascade.trn != nullptr;

  // Cascade decisions — pure functions of the batch, decided pre-lock. A
  // request escalates when it *wishes* to (low stage-1 confidence, or the
  // calibrated timing-only draw) AND the nominal two-stage time still meets
  // its deadline. The slack bound charges stage 2 for every wish in the
  // batch (an upper bound on what actually escalates), so one request's
  // gate never depends on another's.
  std::vector<char> escalate(batch.size(), 0);
  std::vector<core::CascadeTrn::Stage1> stages;
  int n_escalated = 0;
  if (opt.cascade.enabled) {
    std::vector<char> wish(batch.size(), 0);
    int wishes = 0;
    if (cascade_compute) {
      std::vector<const tensor::Tensor*> inputs;
      inputs.reserve(batch.size());
      for (const Request& r : batch) {
        if (r.input == nullptr)
          throw std::invalid_argument("BatchServer: null input on a compute option");
        inputs.push_back(r.input);
      }
      stages = opt.cascade.trn->stage1_batch(inputs);
      for (std::size_t i = 0; i < stages.size(); ++i)
        wish[i] = stages[i].margin < opt.cascade.threshold ? 1 : 0;
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i)
        wish[i] = timing_wish(cascade_seed_, batch[i].id, opt.cascade.p_escalate) ? 1 : 0;
    }
    for (const char w : wish) wishes += w;
    if (wishes > 0) {
      const double bound = opt.latency_ms(n) + opt.cascade.stage2_ms(wishes);
      for (std::size_t i = 0; i < batch.size(); ++i)
        escalate[i] = wish[i] != 0 && now_ms + bound <= batch[i].deadline_ms ? 1 : 0;
    }
    for (const char e : escalate) n_escalated += e;
  }

  // Real compute: one batched pass, bitwise identical to n single-image
  // forwards (outputs skipped for timing-only options). With a cascade,
  // escalated requests get the deep TRN's output (resumed from the shared
  // trunk activation), the rest keep their stage-1 prediction.
  std::vector<tensor::Tensor> outputs;
  if (cascade_compute) {
    outputs.resize(batch.size());
    std::vector<const core::CascadeTrn::Stage1*> to_escalate;
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (escalate[i] != 0) {
        to_escalate.push_back(&stages[i]);
        slots.push_back(i);
      } else {
        outputs[i] = std::move(stages[i].output);
      }
    }
    if (!to_escalate.empty()) {
      std::vector<tensor::Tensor> deep = opt.cascade.trn->escalate_batch(to_escalate);
      for (std::size_t j = 0; j < slots.size(); ++j) outputs[slots[j]] = std::move(deep[j]);
    }
  } else if (opt.net != nullptr) {
    std::vector<const tensor::Tensor*> inputs;
    inputs.reserve(batch.size());
    for (const Request& r : batch) {
      if (r.input == nullptr)
        throw std::invalid_argument("BatchServer: null input on a compute option");
      inputs.push_back(r.input);
    }
    outputs = opt.net->forward_batch(inputs);
  }

  // Accounting happens under mu_ — only after the forward above, so no
  // lock is ever held across compute (the pool's completion wait must not
  // run under a serve lock).
  util::MutexLock lock(mu_);

  // Simulated time: the device model's batched latency (plus the cascade's
  // realized stage-2 mass), with run-to-run jitter and whatever the fault
  // schedule does to this launch. A failed run still burns the time but
  // yields no usable results.
  const double nominal =
      opt.latency_ms(n) + (n_escalated > 0 ? opt.cascade.stage2_ms(n_escalated) : 0.0);
  double service = nominal * rng_.lognormal(0.0, config_.jitter_sigma);
  hw::RunFault fault;
  if (fault_stream_.active()) fault = fault_stream_.next(static_cast<int>(batch_counter_));
  service *= fault.multiplier;
  const double finish = now_ms + service;
  if (!fault.failed) slowdown_ += app::kSlowdownAlpha * (service / nominal - slowdown_);

  std::vector<Completion> done;
  done.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& r = batch[i];
    Completion c;
    c.id = r.id;
    c.arrival_ms = r.arrival_ms;
    c.deadline_ms = r.deadline_ms;
    c.tenant = r.tenant;
    c.slo = r.slo;
    c.finish_ms = finish;
    c.failed = fault.failed;
    c.missed = fault.failed || finish > r.deadline_ms;
    c.escalated = escalate[i] != 0;
    c.option = cur;
    c.batch = n;
    if (i < outputs.size()) c.output = std::move(outputs[i]);
    done.push_back(std::move(c));
  }

  // Feed every completion's verdict to the shared breach policy: queue
  // saturation (waiting time pushing finishes past deadlines) is
  // indistinguishable from device degradation here, and gets the same
  // fallback.
  if (watchdog_.adaptive()) {
    for (const Completion& c : done) {
      const std::size_t at = watchdog_.current();
      const bool slower_fits =
          at > 0 && expected_latency_ms(options_[at - 1], 1) * slowdown_ <=
                        app::kRecoverHeadroom * config_.nominal_deadline_ms;
      const app::MissRateWatchdog::Decision dec = watchdog_.observe(c.missed, slower_fits);
      if (dec.action == app::MissRateWatchdog::Action::kFallBack)
        stats_.switches.push_back({batch_counter_, at, at + 1, dec.window_miss_rate});
      else if (dec.action == app::MissRateWatchdog::Action::kRecover)
        stats_.switches.push_back({batch_counter_, at, at - 1, dec.window_miss_rate});
    }
  }

  stats_.served += n;
  for (const Completion& c : done) stats_.missed += c.missed ? 1 : 0;
  stats_.escalated += n_escalated;
  stats_.batches += 1;
  stats_.busy_ms += service;
  ++batch_counter_;
  return done;
}

}  // namespace netcut::serve
