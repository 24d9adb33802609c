#include "serve/fleet.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/schedule.hpp"

namespace netcut::serve {

/// Fraction of a request's remaining slack kept as safety margin by the
/// feasibility bound (admit only if best-case eta fits in (1 - headroom) of
/// the slack). Without it the saturated steady state parks the backlog
/// exactly on the feasibility boundary, where admitted requests finish at
/// deadline +- jitter and half of them miss by a hair.
constexpr double kAdmissionHeadroom = 0.10;

Fleet::Fleet(std::vector<FleetWorker> workers, FleetConfig config)
    : config_(std::move(config)),
      queue_(workers.empty() ? 1 : workers.size(), config_.seed),
      monitor_(workers.empty() ? 1 : workers.size(), config_.health),
      injector_(
          (config_.faults != nullptr ? *config_.faults : hw::FaultModel::global()).config(),
          workers.empty() ? 1 : workers.size()) {
  if (workers.empty()) throw std::invalid_argument("Fleet: no workers");
  if (config_.classes.empty()) throw std::invalid_argument("Fleet: no SLO classes");
  for (const SloClass& c : config_.classes)
    if (c.weight <= 0 || c.deadline_slack_ms <= 0 || c.p99_budget_ms <= 0)
      throw std::invalid_argument("Fleet: bad SLO class '" + c.name + "'");
  names_.reserve(workers.size());
  servers_.reserve(workers.size());
  busy_until_ms_.assign(workers.size(), -std::numeric_limits<double>::infinity());
  serving_.assign(workers.size(), 0);
  attempts_.assign(workers.size(), 0);
  max_batch_.reserve(workers.size());
  for (std::size_t w = 0; w < workers.size(); ++w) {
    FleetWorker& spec = workers[w];
    names_.push_back(spec.name.empty() ? "worker" + std::to_string(w) : spec.name);
    max_batch_.push_back(static_cast<std::size_t>(std::max(1, spec.serve.max_batch)));
    servers_.push_back(std::make_unique<BatchServer>(std::move(spec.options),
                                                     queue_.shard(w), spec.serve));
  }
}

ReplicaState Fleet::worker_state(std::size_t w) const {
  util::MutexLock lock(mu_);
  return monitor_.state(w);
}

ReplicaHealth Fleet::worker_health(std::size_t w) const {
  util::MutexLock lock(mu_);
  return monitor_.replica(w);
}

bool Fleet::feasible(const Request& r, double now_ms) const {
  // Least-loaded-replica bound: earliest start (free time), plus the
  // shard's backlog drained at the fastest TRN's amortized batched rate —
  // fastest(max_batch) / max_batch, the best sustained per-request rate any
  // option on the replica can reach (a batch of n costs curve(n), so
  // dividing the single-request latency by the batch size would overstate
  // the drain rate) — plus one full fastest batch window for the request
  // itself. Reserving the whole batch window, not a single-request pass, is
  // what keeps admission self-consistent: it caps the backlog at a depth
  // where the EDF head still has curve(max_batch) of slack left when its
  // turn comes, so the batch former can keep packing full batches. A looser
  // bound admits a backlog deep enough that heads arrive at the server
  // already hopeless, batches degenerate toward size 1, the effective
  // service rate collapses below the assumed amortized rate, and every
  // admitted request misses — the exact spiral admission control is there
  // to prevent. If even this best case blows the deadline on every replica,
  // no admission order could save the request: shed now, explicitly,
  // instead of missing later. Work stealing is what makes the per-replica
  // view sound — work admitted against a short shard gets pulled to a dry
  // worker if its own shard lags.
  // A fleet with no Up replica has no capacity to vouch for: shed.
  // Degraded/Recovering replicas may still *serve* (they drain backlog),
  // but admission promises are only made against replicas whose health the
  // monitor currently trusts — that is what keeps the bound sound at N-1
  // after a failover, and what stops a flapping replica from re-inflating
  // capacity before its warm-up completes.
  if (monitor_.up_count() == 0) return false;

  const double margin =
      std::max(0.0, kAdmissionHeadroom * (r.deadline_ms - now_ms));

  // Own-shard view: the replica this request routes to, serving only its
  // own shard, finishes it in time. Under balanced routing this is the
  // exact bound — checking some *other*, less-loaded replica instead would
  // admit work into a fuller shard than the one that passed the test.
  // route() only picks Up shards while any exist, so `own` is in admission.
  const std::size_t own = queue_.route(r.tenant);
  const int own_mb = static_cast<int>(max_batch_[own]);
  const double own_batch = servers_[own]->fastest_latency_ms(own_mb);
  const double own_eta = std::max(now_ms, busy_until_ms_[own]) +
                         static_cast<double>(queue_.shard(own).size()) * own_batch /
                             static_cast<double>(own_mb) +
                         own_batch;
  if (own_eta + margin <= r.deadline_ms) return true;

  // Fleet-wide view, applicable only while stealing is actually available:
  // work stealing turns the shards into one logical EDF queue with the
  // summed service rate (dry workers pull the most urgent work over), so a
  // request the own-shard view sheds is still admitted while the fleet as
  // a whole can absorb it. Under skewed routing this is what keeps the hot
  // shard's backlog bounded while the stealing workers' shards look
  // deceptively dry. The dry-shard gate matters in the other direction: in
  // a balanced saturated fleet no shard ever runs dry, nothing migrates,
  // and vouching for the fleet's aggregate rate would admit work into a
  // hot shard no stealer will ever relieve.
  bool stealer_available = false;
  for (std::size_t w = 0; w < servers_.size() && !stealer_available; ++w)
    stealer_available = w != own && monitor_.in_admission(w) && queue_.shard(w).empty();
  if (!stealer_available) return false;

  // Only Up replicas contribute rate: a Down replica serves nothing and a
  // Degraded/Recovering one may vanish (or is still warming) — counting it
  // would admit against capacity the fleet might not have.
  double fleet_rate = 0.0;                                        // requests per ms
  double earliest_start = std::numeric_limits<double>::infinity();
  double best_batch = std::numeric_limits<double>::infinity();
  for (std::size_t w = 0; w < servers_.size(); ++w) {
    if (!monitor_.in_admission(w)) continue;
    const int mb = static_cast<int>(max_batch_[w]);
    const double fastest_batch = servers_[w]->fastest_latency_ms(mb);
    fleet_rate += static_cast<double>(mb) / fastest_batch;
    earliest_start = std::min(earliest_start, std::max(now_ms, busy_until_ms_[w]));
    best_batch = std::min(best_batch, fastest_batch);
  }
  const double fleet_eta = earliest_start +
                           static_cast<double>(queue_.total_size()) / fleet_rate + best_batch;
  return fleet_eta + margin <= r.deadline_ms;
}

bool Fleet::over_fair_share(const Request& r) const {
  // Weighted share of in-flight work. Active tenants are those holding
  // work right now, plus the submitter; iteration over the ordered map
  // keeps the arithmetic deterministic.
  double total_weight = 0.0;
  bool submitter_counted = false;
  for (const auto& [tenant, n] : inflight_) {
    if (n <= 0) continue;
    const auto it = tenants_.find(tenant);
    total_weight += config_.classes[it->second.slo].weight;
    submitter_counted = submitter_counted || tenant == r.tenant;
  }
  if (!submitter_counted) total_weight += config_.classes[r.slo].weight;
  const double allowance = config_.classes[r.slo].weight / total_weight *
                           static_cast<double>(inflight_total_ + 1);
  const auto it = inflight_.find(r.tenant);
  const std::int64_t mine = it != inflight_.end() ? it->second : 0;
  return static_cast<double>(mine + 1) > allowance;
}

std::optional<Completion> Fleet::submit(const Request& r, double now_ms) {
  if (r.slo >= config_.classes.size())
    throw std::invalid_argument("Fleet: request references unknown SLO class");
  {
    util::MutexLock lock(mu_);
    TenantCounters& tc = tenants_[r.tenant];
    tc.slo = r.slo;
    ++tc.submitted;
    ++stats_.submitted;

    const bool pressured = queue_.total_size() >= config_.pressure_backlog;
    if (!feasible(r, now_ms) || (pressured && over_fair_share(r))) {
      ++tc.shed;
      ++stats_.shed;
      Completion c;
      c.id = r.id;
      c.arrival_ms = r.arrival_ms;
      c.deadline_ms = r.deadline_ms;
      c.tenant = r.tenant;
      c.slo = r.slo;
      c.finish_ms = now_ms;
      c.rejected = true;
      return c;
    }

    // Count the admission before the push lands: a concurrent stats reader
    // in the window below must still see submitted == shed + served +
    // in flight.
    ++inflight_[r.tenant];
    ++inflight_total_;
  }
  // Admitted-but-not-yet-enqueued window: the request is counted in flight
  // but in no shard. The model checker interleaves steppers and other
  // submitters here to prove the conservation invariant and that a stepper
  // racing this push merely finds a dry shard (no lost request, no lost
  // wakeup once it lands).
  util::sched::yield("fleet.submit.admit-to-push");
  queue_.push(r);
  return std::nullopt;
}

std::vector<Completion> Fleet::step(double now_ms) {
  // Health first: apply heartbeat-deadline / probation transitions and
  // drain any Down shard before dispatching. Drain rejections are explicit
  // completions the caller must account, so they are returned as this
  // step's result (the next step() call at the same now_ms dispatches).
  {
    std::vector<Completion> shed = failover_pass(now_ms);
    if (!shed.empty()) return shed;
  }
  for (std::size_t w = 0; w < servers_.size(); ++w) {
    // Claim the worker under the lock, serve it outside: the replica's
    // step runs the batch forward (which may block on the thread pool's
    // completion wait), so the fleet lock must not be held across it. The
    // serving_ flag keeps a concurrent stepper from double-serving the
    // claimed replica in that window.
    enum class Act { kSkip, kServe, kDrain };
    Act act = Act::kSkip;
    std::vector<std::size_t> survivors;
    {
      util::MutexLock lock(mu_);
      if (!monitor_.serving_allowed(w)) continue;
      if (serving_[w] != 0 || busy_until_ms_[w] > now_ms) continue;
      // Dispatch only when there is work the replica could take (its own
      // shard, or another shard it could steal from) — a dispatch attempt
      // is an observable event for the fault injector and the silence
      // clock, so idle polls must not count as attempts.
      bool has_work = !queue_.shard(w).empty();
      for (std::size_t v = 0; v < servers_.size() && !has_work; ++v)
        has_work = v != w && !queue_.shard(v).empty();
      if (!has_work) continue;

      if (injector_.active()) {
        const std::int64_t k = attempts_[w]++;
        switch (injector_.on_attempt(w, k, now_ms)) {
          case WorkerFaultInjector::Attempt::kSilent: {
            // The replica ignored the dispatch: open (or keep open) the
            // silence window and judge it against the thresholds now.
            monitor_.note_attempt_blocked(w, now_ms);
            const bool went_down =
                monitor_.advance(w, now_ms, injector_.responsive(w, now_ms));
            queue_.set_routable(w, monitor_.routable(w));
            if (went_down) {
              survivors = on_went_down(w);
              act = Act::kDrain;
            }
            break;
          }
          case WorkerFaultInjector::Attempt::kError: {
            const ReplicaState before = monitor_.state(w);
            monitor_.note_error(w, now_ms);
            queue_.set_routable(w, monitor_.routable(w));
            if (before != ReplicaState::kDown &&
                monitor_.state(w) == ReplicaState::kDown) {
              survivors = on_went_down(w);
              act = Act::kDrain;
            }
            break;
          }
          case WorkerFaultInjector::Attempt::kServe:
            monitor_.note_dispatch(w, now_ms);
            serving_[w] = 1;
            act = Act::kServe;
            break;
        }
      } else {
        serving_[w] = 1;
        act = Act::kServe;
      }
    }
    if (act == Act::kDrain) {
      // Nudge the survivors' watchdogs outside the lock (the server takes
      // its own rank-kServer mutex), then drain the dead shard.
      for (std::size_t v : survivors) servers_[v]->note_capacity_loss();
      std::vector<Completion> shed = drain_worker(w, now_ms);
      if (!shed.empty()) return shed;
      continue;
    }
    if (act != Act::kServe) continue;
    util::sched::yield("fleet.step.claimed");
    if (queue_.shard(w).empty()) queue_.balance(w, max_batch_[w]);
    std::vector<Completion> done;
    if (!queue_.shard(w).empty()) done = servers_[w]->step(now_ms);

    util::MutexLock lock(mu_);
    serving_[w] = 0;
    if (done.empty()) continue;
    busy_until_ms_[w] = done.front().finish_ms;
    // A completed batch is the heartbeat: close the silence window, decay
    // the error score, advance the warm-up (Degraded/Recovering earn Up
    // back after warmup_batches clean batches — mirrored into routing).
    monitor_.note_progress(w, now_ms);
    queue_.set_routable(w, monitor_.routable(w));
    for (Completion& c : done) {
      c.worker = w;
      TenantCounters& tc = tenants_[c.tenant];
      ++tc.served;
      tc.missed += c.missed ? 1 : 0;
      ++stats_.served;
      stats_.missed += c.missed ? 1 : 0;
      --inflight_[c.tenant];
      --inflight_total_;
    }
    return done;
  }
  return {};
}

std::vector<Completion> Fleet::failover_pass(double now_ms) {
  // Without worker-scoped faults no replica can ever leave Up (silence
  // windows and errors only come from the injector), so the clean path
  // skips the scan entirely — NETCUT_FAULTS unset stays the PR 8 loop.
  std::vector<std::size_t> to_drain;
  std::vector<std::size_t> survivors;
  {
    util::MutexLock lock(mu_);
    if (!injector_.active()) return {};
    for (std::size_t w = 0; w < servers_.size(); ++w) {
      const bool went_down =
          monitor_.advance(w, now_ms, injector_.responsive(w, now_ms));
      queue_.set_routable(w, monitor_.routable(w));
      if (went_down) {
        for (std::size_t v : on_went_down(w)) survivors.push_back(v);
        to_drain.push_back(w);
      } else if (monitor_.state(w) == ReplicaState::kDown &&
                 !queue_.shard(w).empty()) {
        // Stray sweep: a push that routed before the Down flip can land
        // after the drain. Its staleness is bounded to one step — every
        // pass re-drains any Down shard holding work.
        to_drain.push_back(w);
      }
    }
  }
  for (std::size_t v : survivors) servers_[v]->note_capacity_loss();
  std::vector<Completion> shed;
  for (std::size_t w : to_drain) {
    std::vector<Completion> s = drain_worker(w, now_ms);
    shed.insert(shed.end(), std::make_move_iterator(s.begin()),
                std::make_move_iterator(s.end()));
  }
  return shed;
}

std::vector<std::size_t> Fleet::on_went_down(std::size_t w) {
  ++stats_.failovers;
  // Survivors inherit a slice of the dead replica's load the instant
  // routing flips; their watchdogs get the capacity-loss nudge (fall back
  // to a faster TRN now) rather than waiting a full miss window.
  std::vector<std::size_t> survivors;
  for (std::size_t v = 0; v < servers_.size(); ++v)
    if (v != w && monitor_.in_admission(v)) survivors.push_back(v);
  return survivors;
}

std::vector<Completion> Fleet::drain_worker(std::size_t w, double now_ms) {
  // Atomically empty the dead shard. The orphans stay counted in the
  // inflight totals while they sit in no shard, so the conservation
  // invariant (submitted == shed + served + in flight) holds at every
  // interleaving of this window — the model checker parks threads here
  // against concurrent submits, steals and stats reads to prove it.
  std::vector<Request> orphans = queue_.shard(w).drain();
  if (orphans.empty()) return {};
  util::sched::yield("fleet.drain.holding-orphans");
  std::vector<Completion> shed;
  {
    util::MutexLock lock(mu_);
    for (const Request& r : orphans) {
      // Re-admission against the shrunk fleet, one orphan at a time with
      // reinsertion under the same lock hold, so each later orphan's bound
      // sees the earlier ones already back in the shards (batching the
      // checks would over-admit: fifty orphans all judged against the
      // pre-requeue backlog). EDF order is preserved per shard because
      // drain() yields EDF order and reinsert() re-heapifies.
      if (feasible(r, now_ms)) {
        queue_.shard(queue_.route(r.tenant)).reinsert(r);
        ++stats_.requeued;
        continue;
      }
      TenantCounters& tc = tenants_[r.tenant];
      ++tc.shed;
      ++stats_.shed;
      ++stats_.drain_shed;
      --inflight_[r.tenant];
      --inflight_total_;
      Completion c;
      c.id = r.id;
      c.arrival_ms = r.arrival_ms;
      c.deadline_ms = r.deadline_ms;
      c.tenant = r.tenant;
      c.slo = r.slo;
      c.finish_ms = now_ms;
      c.rejected = true;
      shed.push_back(std::move(c));
    }
  }
  util::sched::yield("fleet.drain.requeue");
  return shed;
}

double Fleet::next_free_after(double now_ms) const {
  util::MutexLock lock(mu_);
  double next = std::numeric_limits<double>::infinity();
  for (const double busy : busy_until_ms_)
    if (busy > now_ms) next = std::min(next, busy);
  if (injector_.active()) {
    // Health deadlines are clock events too: an event-driven caller must
    // wake at the next silence threshold / probation end / hang end, or a
    // wedged replica would never be *declared* dead between batches.
    for (std::size_t w = 0; w < servers_.size(); ++w) {
      next = std::min(next, monitor_.next_event_after(w, now_ms));
      const double alive = injector_.next_responsive_ms(w, now_ms);
      if (alive > now_ms) next = std::min(next, alive);
    }
  }
  return next;
}

void Fleet::close() { queue_.close_all(); }

FleetStats Fleet::stats() const {
  FleetStats s;
  {
    util::MutexLock lock(mu_);
    s = stats_;
  }
  s.steals = 0;
  for (std::size_t w = 0; w < servers_.size(); ++w) s.steals += queue_.steals(w);
  return s;
}

}  // namespace netcut::serve
