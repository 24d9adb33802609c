// Deterministic load simulation for the serving layer, shared by the
// serving tests, bench/serve_snapshot and examples/serve_demo and netcut_cli.
//
// Everything here runs on a simulated millisecond clock: arrivals are an
// open-loop Poisson process drawn from a seeded Rng (the same
// derive_seed(seed, label) idiom the fault streams use), the event loops
// advance time to batch finishes and next arrivals, and every reported
// number — throughput, p50/p99 response, miss rate — is a pure function of
// (config, seed). Two same-seed invocations are bit-identical, which is
// what lets the benchmark check its numbers into a snapshot and the tests
// assert reproducibility outright.
//
// Two harnesses share the arrival machinery:
//  * the single-server loop (run_open_loop), and
//  * the fleet loop (run_fleet_open_loop): multi-tenant phased arrivals
//    through Fleet::submit/step, scaled to millions of requests — the
//    report keeps O(1) state per request (responses + an FNV-1a digest of
//    the completion stream) instead of materializing every Completion, so
//    bit-identity checks stay cheap at fleet scale.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "serve/fleet.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace netcut::serve_sim {

struct LoadConfig {
  int requests = 200;
  /// Mean of the exponential interarrival gap (open-loop: arrivals do not
  /// wait for service). Rates above the single-request service rate
  /// saturate an unbatched server.
  double mean_interarrival_ms = 1.0;
  /// Relative deadline attached to every request (absolute deadline =
  /// arrival + slack).
  double deadline_slack_ms = 10.0;
  std::uint64_t seed = 424242;
};

/// Open-loop Poisson arrival schedule, in arrival order with ids 0..n-1.
/// Inputs are assigned round-robin from `pool` (which the caller keeps
/// alive for the whole simulation); an empty pool leaves inputs null and is
/// only valid for timing-only servers (ServeOption::net == nullptr).
inline std::vector<serve::Request> generate_arrivals(
    const LoadConfig& config, const std::vector<tensor::Tensor>& pool) {
  if (config.requests < 1) throw std::invalid_argument("generate_arrivals: no requests");
  if (config.mean_interarrival_ms <= 0 || config.deadline_slack_ms <= 0)
    throw std::invalid_argument("generate_arrivals: non-positive timing");
  util::Rng rng(util::derive_seed(config.seed, "serve-sim/arrivals"));
  std::vector<serve::Request> out;
  out.reserve(static_cast<std::size_t>(config.requests));
  double t = 0.0;
  for (int i = 0; i < config.requests; ++i) {
    // Exponential gap via inverse transform; uniform() < 1 keeps log finite.
    t += -config.mean_interarrival_ms * std::log(1.0 - rng.uniform());
    serve::Request r;
    r.id = static_cast<std::uint64_t>(i);
    r.arrival_ms = t;
    r.deadline_ms = t + config.deadline_slack_ms;
    if (!pool.empty()) r.input = &pool[static_cast<std::size_t>(i) % pool.size()];
    out.push_back(r);
  }
  return out;
}

struct SimReport {
  std::vector<serve::Completion> completions;  // in completion order
  double makespan_ms = 0.0;       // last finish time
  double throughput_rps = 0.0;    // served per second of simulated time
  double p50_response_ms = 0.0;   // response = finish - arrival
  double p99_response_ms = 0.0;
  double miss_rate = 0.0;         // deadline misses / served
  std::int64_t batches = 0;
  double mean_batch = 0.0;
};

/// Empirical quantile of `sorted` (ascending), nearest-rank. q in [0, 1].
inline double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::min(sorted.size() - 1, rank > 0 ? rank - 1 : 0)];
}

/// Single-server event loop: enqueue every arrival due by `t`; when the
/// queue is empty jump `t` to the next arrival, otherwise serve one batch
/// and advance `t` to its finish. Runs until all arrivals complete.
inline SimReport run_open_loop(serve::BatchServer& server, serve::RequestQueue& queue,
                               const std::vector<serve::Request>& arrivals) {
  SimReport rep;
  rep.completions.reserve(arrivals.size());
  double t = 0.0;
  std::size_t next = 0;
  while (rep.completions.size() < arrivals.size()) {
    while (next < arrivals.size() && arrivals[next].arrival_ms <= t)
      queue.push(arrivals[next++]);
    if (queue.empty()) {
      t = arrivals[next].arrival_ms;
      continue;
    }
    std::vector<serve::Completion> done = server.step(t);
    t = done.front().finish_ms;
    for (serve::Completion& c : done) rep.completions.push_back(std::move(c));
  }

  std::vector<double> responses;
  responses.reserve(rep.completions.size());
  std::int64_t misses = 0;
  for (const serve::Completion& c : rep.completions) {
    responses.push_back(c.finish_ms - c.arrival_ms);
    rep.makespan_ms = std::max(rep.makespan_ms, c.finish_ms);
    misses += c.missed ? 1 : 0;
  }
  std::sort(responses.begin(), responses.end());
  const double n = static_cast<double>(rep.completions.size());
  rep.throughput_rps = rep.makespan_ms > 0 ? n / rep.makespan_ms * 1e3 : 0.0;
  rep.p50_response_ms = quantile(responses, 0.50);
  rep.p99_response_ms = quantile(responses, 0.99);
  rep.miss_rate = n > 0 ? static_cast<double>(misses) / n : 0.0;
  rep.batches = server.stats().batches;
  rep.mean_batch = rep.batches > 0 ? n / static_cast<double>(rep.batches) : 0.0;
  return rep;
}

/// Bit-level equality of two simulation outcomes (double comparisons are
/// exact on purpose: the contract is bit-reproducibility, not tolerance).
inline bool reports_identical(const SimReport& a, const SimReport& b) {
  if (a.completions.size() != b.completions.size() || a.batches != b.batches ||
      a.makespan_ms != b.makespan_ms || a.throughput_rps != b.throughput_rps ||
      a.p50_response_ms != b.p50_response_ms || a.p99_response_ms != b.p99_response_ms ||
      a.miss_rate != b.miss_rate)
    return false;
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    const serve::Completion& x = a.completions[i];
    const serve::Completion& y = b.completions[i];
    if (x.id != y.id || x.finish_ms != y.finish_ms || x.missed != y.missed ||
        x.failed != y.failed || x.rejected != y.rejected || x.escalated != y.escalated ||
        x.option != y.option || x.worker != y.worker || x.batch != y.batch)
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Fleet-scale harness: multi-tenant phased arrivals + multi-worker event loop.
// ---------------------------------------------------------------------------

/// One tenant in the merged arrival stream.
struct TenantSpec {
  std::uint32_t tenant = 0;
  std::uint32_t slo = 0;  // index into the fleet's SLO class table
  double weight = 1.0;    // share of the merged Poisson stream
};

/// Piecewise traffic shaping. Phases apply in order from t=0; past the last
/// phase the base rate resumes. `boost_tenant` indexes into the tenants
/// vector (not a tenant id) and multiplies that tenant's stream weight —
/// the "one tenant goes bursty" overload schedule.
struct LoadPhase {
  double duration_ms = 0.0;
  double rate_mult = 1.0;  // multiplies the aggregate arrival rate
  std::size_t boost_tenant = static_cast<std::size_t>(-1);
  double boost_mult = 1.0;
};

struct FleetLoadConfig {
  std::int64_t requests = 100000;
  /// Mean interarrival of the merged stream at rate_mult = 1.
  double mean_interarrival_ms = 1.0;
  std::vector<TenantSpec> tenants = {TenantSpec{}};
  std::vector<LoadPhase> phases;  // empty = uniform rate throughout
  std::uint64_t seed = 424242;
};

/// Open-loop multi-tenant Poisson schedule in arrival order, ids 0..n-1.
/// Each arrival draws its tenant from the (phase-adjusted) weights; its
/// deadline is arrival + the tenant's SLO-class slack. Inputs round-robin
/// from `pool` as in generate_arrivals.
inline std::vector<serve::Request> generate_fleet_arrivals(
    const FleetLoadConfig& config, const std::vector<serve::SloClass>& classes,
    const std::vector<tensor::Tensor>& pool) {
  if (config.requests < 1) throw std::invalid_argument("generate_fleet_arrivals: no requests");
  if (config.mean_interarrival_ms <= 0)
    throw std::invalid_argument("generate_fleet_arrivals: non-positive interarrival");
  if (config.tenants.empty())
    throw std::invalid_argument("generate_fleet_arrivals: no tenants");
  for (const TenantSpec& ts : config.tenants) {
    if (ts.weight <= 0) throw std::invalid_argument("generate_fleet_arrivals: bad weight");
    if (ts.slo >= classes.size())
      throw std::invalid_argument("generate_fleet_arrivals: unknown SLO class");
  }
  for (const LoadPhase& p : config.phases)
    if (p.duration_ms <= 0 || p.rate_mult <= 0 || p.boost_mult <= 0)
      throw std::invalid_argument("generate_fleet_arrivals: bad phase");

  util::Rng rng(util::derive_seed(config.seed, "serve-sim/fleet-arrivals"));
  std::vector<serve::Request> out;
  out.reserve(static_cast<std::size_t>(config.requests));
  std::vector<double> weights(config.tenants.size(), 0.0);
  double t = 0.0;
  std::size_t phase = 0;
  double phase_end = config.phases.empty() ? 0.0 : config.phases[0].duration_ms;
  for (std::int64_t i = 0; i < config.requests; ++i) {
    while (phase < config.phases.size() && t >= phase_end) {
      ++phase;
      if (phase < config.phases.size()) phase_end += config.phases[phase].duration_ms;
    }
    const bool in_phase = phase < config.phases.size();
    const double rate_mult = in_phase ? config.phases[phase].rate_mult : 1.0;
    t += -config.mean_interarrival_ms / rate_mult * std::log(1.0 - rng.uniform());
    for (std::size_t k = 0; k < weights.size(); ++k) {
      weights[k] = config.tenants[k].weight;
      if (in_phase && k == config.phases[phase].boost_tenant)
        weights[k] *= config.phases[phase].boost_mult;
    }
    const auto pick = static_cast<std::size_t>(rng.categorical(weights));
    const TenantSpec& ts = config.tenants[pick];
    serve::Request r;
    r.id = static_cast<std::uint64_t>(i);
    r.arrival_ms = t;
    r.deadline_ms = t + classes[ts.slo].deadline_slack_ms;
    r.tenant = ts.tenant;
    r.slo = ts.slo;
    if (!pool.empty()) r.input = &pool[static_cast<std::size_t>(i) % pool.size()];
    out.push_back(r);
  }
  return out;
}

struct TenantReport {
  std::uint32_t slo = 0;
  std::int64_t submitted = 0;
  std::int64_t shed = 0;
  std::int64_t served = 0;
  std::int64_t missed = 0;
  double p50_response_ms = 0.0;  // admitted (served) requests only
  double p99_response_ms = 0.0;
  double miss_rate = 0.0;  // missed / served
  double shed_rate = 0.0;  // shed / submitted
};

/// Fleet-level outcome. Deliberately O(1) per request: quantiles come from
/// response vectors and everything order-sensitive is folded into `digest`
/// (FNV-1a over the completion stream, rejections included), so two runs
/// of a multi-million-request simulation can be compared bit-for-bit
/// without holding two copies of every Completion.
struct FleetReport {
  std::int64_t submitted = 0;
  std::int64_t shed = 0;
  std::int64_t served = 0;
  std::int64_t missed = 0;
  std::int64_t batches = 0;
  std::int64_t steals = 0;
  std::int64_t failovers = 0;   // Down declarations that triggered a drain
  std::int64_t requeued = 0;    // orphans re-queued onto surviving shards
  std::int64_t drain_shed = 0;  // orphans shed at re-admission (subset of shed)
  double makespan_ms = 0.0;
  double throughput_rps = 0.0;   // served per second of simulated time
  double p50_response_ms = 0.0;  // admitted requests only
  double p99_response_ms = 0.0;
  double miss_rate = 0.0;  // missed / served (admitted work; shed is separate)
  double shed_rate = 0.0;  // shed / submitted (always reported, never silent)
  double mean_batch = 0.0;
  std::map<std::uint32_t, TenantReport> tenants;
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
};

inline void digest_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

inline std::uint64_t double_bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

inline void digest_completion(std::uint64_t& h, const serve::Completion& c) {
  digest_u64(h, c.id);
  digest_u64(h, double_bits(c.finish_ms));
  digest_u64(h, c.tenant);
  digest_u64(h, c.slo);
  // `escalated` rides bit 3 so every pre-cascade digest (escalated always
  // false) keeps its stored value.
  digest_u64(h, static_cast<std::uint64_t>(c.missed) | (static_cast<std::uint64_t>(c.failed) << 1) |
                    (static_cast<std::uint64_t>(c.rejected) << 2) |
                    (static_cast<std::uint64_t>(c.escalated) << 3));
  digest_u64(h, c.option);
  digest_u64(h, c.worker);
  digest_u64(h, static_cast<std::uint64_t>(c.batch));
}

/// Fleet event loop: submit every arrival at its arrival time (admission
/// rejections complete immediately), let every free worker start a batch,
/// then jump the clock to the next arrival or batch finish. Runs until
/// every arrival is accounted for (served or shed). `capture`, when given,
/// receives the full completion stream (tests; leave null at bench scale).
inline FleetReport run_fleet_open_loop(serve::Fleet& fleet,
                                       const std::vector<serve::Request>& arrivals,
                                       std::vector<serve::Completion>* capture = nullptr) {
  FleetReport rep;
  std::vector<double> responses;
  responses.reserve(arrivals.size());
  std::map<std::uint32_t, std::vector<double>> tenant_responses;
  std::size_t accounted = 0;
  std::size_t next = 0;
  double t = 0.0;

  auto account = [&](const serve::Completion& c) {
    digest_completion(rep.digest, c);
    if (!c.rejected) {
      responses.push_back(c.finish_ms - c.arrival_ms);
      tenant_responses[c.tenant].push_back(c.finish_ms - c.arrival_ms);
      rep.makespan_ms = std::max(rep.makespan_ms, c.finish_ms);
    }
    if (capture != nullptr) capture->push_back(c);
    ++accounted;
  };

  while (accounted < arrivals.size()) {
    while (next < arrivals.size() && arrivals[next].arrival_ms <= t) {
      const serve::Request& r = arrivals[next++];
      if (auto rejected = fleet.submit(r, r.arrival_ms)) account(*rejected);
    }
    std::vector<serve::Completion> done = fleet.step(t);
    if (!done.empty()) {
      for (const serve::Completion& c : done) account(c);
      continue;
    }
    const double next_arrival = next < arrivals.size()
                                    ? arrivals[next].arrival_ms
                                    : std::numeric_limits<double>::infinity();
    const double next_finish = fleet.next_free_after(t);
    const double jump = std::min(next_arrival, next_finish);
    if (!std::isfinite(jump)) break;  // defensive: nothing left can make progress
    t = jump;
  }

  const serve::FleetStats& fs = fleet.stats();
  rep.submitted = fs.submitted;
  rep.shed = fs.shed;
  rep.served = fs.served;
  rep.missed = fs.missed;
  rep.steals = fs.steals;
  rep.failovers = fs.failovers;
  rep.requeued = fs.requeued;
  rep.drain_shed = fs.drain_shed;
  for (std::size_t w = 0; w < fleet.workers(); ++w)
    rep.batches += fleet.worker(w).stats().batches;
  std::sort(responses.begin(), responses.end());
  rep.throughput_rps =
      rep.makespan_ms > 0 ? static_cast<double>(rep.served) / rep.makespan_ms * 1e3 : 0.0;
  rep.p50_response_ms = quantile(responses, 0.50);
  rep.p99_response_ms = quantile(responses, 0.99);
  rep.miss_rate =
      rep.served > 0 ? static_cast<double>(rep.missed) / static_cast<double>(rep.served) : 0.0;
  rep.shed_rate = rep.submitted > 0
                      ? static_cast<double>(rep.shed) / static_cast<double>(rep.submitted)
                      : 0.0;
  rep.mean_batch = rep.batches > 0
                       ? static_cast<double>(rep.served) / static_cast<double>(rep.batches)
                       : 0.0;
  for (const auto& [tenant, counters] : fleet.tenants()) {
    TenantReport tr;
    tr.slo = counters.slo;
    tr.submitted = counters.submitted;
    tr.shed = counters.shed;
    tr.served = counters.served;
    tr.missed = counters.missed;
    auto it = tenant_responses.find(tenant);
    if (it != tenant_responses.end()) {
      std::sort(it->second.begin(), it->second.end());
      tr.p50_response_ms = quantile(it->second, 0.50);
      tr.p99_response_ms = quantile(it->second, 0.99);
    }
    tr.miss_rate = tr.served > 0
                       ? static_cast<double>(tr.missed) / static_cast<double>(tr.served)
                       : 0.0;
    tr.shed_rate = tr.submitted > 0
                       ? static_cast<double>(tr.shed) / static_cast<double>(tr.submitted)
                       : 0.0;
    rep.tenants.emplace(tenant, tr);
  }
  return rep;
}

/// Bit-level equality of two fleet outcomes, per-tenant reports included.
/// The digest covers the full completion stream, so agreement here means
/// the two runs produced identical completions in identical order.
inline bool fleet_reports_identical(const FleetReport& a, const FleetReport& b) {
  if (a.digest != b.digest || a.submitted != b.submitted || a.shed != b.shed ||
      a.served != b.served || a.missed != b.missed || a.batches != b.batches ||
      a.steals != b.steals || a.failovers != b.failovers || a.requeued != b.requeued ||
      a.drain_shed != b.drain_shed || a.makespan_ms != b.makespan_ms ||
      a.throughput_rps != b.throughput_rps || a.p50_response_ms != b.p50_response_ms ||
      a.p99_response_ms != b.p99_response_ms || a.miss_rate != b.miss_rate ||
      a.shed_rate != b.shed_rate || a.tenants.size() != b.tenants.size())
    return false;
  for (auto ita = a.tenants.begin(), itb = b.tenants.begin(); ita != a.tenants.end();
       ++ita, ++itb) {
    const TenantReport& x = ita->second;
    const TenantReport& y = itb->second;
    if (ita->first != itb->first || x.slo != y.slo || x.submitted != y.submitted ||
        x.shed != y.shed || x.served != y.served || x.missed != y.missed ||
        x.p50_response_ms != y.p50_response_ms || x.p99_response_ms != y.p99_response_ms)
      return false;
  }
  return true;
}

}  // namespace netcut::serve_sim
