// `serve`: an open loop with Poisson arrivals on a wall clock. One ingress
// thread calls Fleet::submit at each request's due time; one stepper loops
// Fleet::step(now) on a single replica that runs real networks: the
// MobileNetV1-0.50@32 TRN with a mid-cut fallback, both priced by the host
// batch curve measured at set-up. The forward is small, so admission,
// queueing, batch formation and watchdog costs are a visible share. The
// run is a steady phase under capacity, then an overload phase above it.
//
// Latency runs from a request's due time to the return of the step() that
// carried it; the fleet's modeled finish time is never read.
#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trn.hpp"
#include "hw/faults.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "quant/fusion.hpp"
#include "serve/fleet.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "zoo/zoo.hpp"

namespace perfbench {
namespace {

using netcut::tensor::Tensor;
namespace nn = netcut::nn;
namespace serve = netcut::serve;

constexpr int kResolution = 32;
constexpr int kMaxBatch = 8;
constexpr int kImages = 16;
// The stepper alone runs the forwards (a pool of one): with a second pool
// participant, every forward waited for whichever thread the shared host
// descheduled, and the steady p50 spread 0.28 over five seeds, against 0.04
// with one.
constexpr int kPoolThreads = 1;
constexpr std::uint64_t kWeightSeed = 2021;

// Offered rates and deadline: constants chosen once on a 4-core host
// (preferred TRN b1 2-3 ms, b8 14-21 ms; fallback b8 ~7 ms; priced at
// kCurveHeadroom times that: about 200 req/s unbatched on the preferred TRN
// and 570 req/s at full batches on the fallback). The steady phase keeps
// the replica priced-busy about a quarter of the time, so three steady
// requests in four are served alone on arrival and the p50 is one of them.
// At 100 req/s and 1.5 times the price only two in three were, the p50 sat
// near the boundary between queued and unqueued requests, and it read 4.3
// to 6.4 ms in three runs of one seed. The overload phase sits well
// above capacity. The deadline holds the fallback's priced full batch
// several times over and the preferred TRN's about once, so under overload
// the ladder serves mostly from the fallback. Never derived from a run's
// own measurements, so a faster or slower program sees the same load.
constexpr double kSteadyRate = 50.0;     // req/s
constexpr double kOverloadRate = 1400.0; // req/s
constexpr double kSlackMs = 40.0;        // deadline = due + slack
// ServeOption::latency_ms is the fastest set-up forward at each batch size
// times this. The fleet counts a replica busy until the priced finish, so
// with the price above the wall forward, dispatch follows the price and a
// host slowdown mid-run does not make the fleet admit and batch against
// service times it cannot meet. Priced at the fastest forward (or 1.25
// times it), batches packed up to their deadlines finished past them on the
// wall clock, and overload goodput fell to 30-80 req/s in some runs
// against 300-460 in others; at 1.5 times it, single overload windows still
// read 160-210 against 400 in the same run. Goodput then tracks the priced
// capacity, so a slower forward lowers it through the set-up curve, while
// serving overhead shows in the steady-phase latency.
constexpr double kCurveHeadroom = 2.0;
// The steady phase comes first, on a fresh fleet, so every steady request
// meets the preferred option. When steady phases followed overload ones,
// the ladder was still recovering from the fallback, the steady latencies
// mixed both options (about 0.8 ms and 2.5 ms), and their p50 spread 0.27
// of its median over seven seeds, against 0.08 with the steady phase first.
constexpr double kSteadyShare = 0.6;  // of the run

struct Option {
  std::string name;
  nn::Graph fused;                       // BN-folded TRN
  std::unique_ptr<nn::Network> batched;  // the replica's network
  std::vector<double> fastest_ms;        // host batch curve, index = batch size
  std::vector<Tensor> ref;               // single-image outputs per image
};

struct Setup {
  std::vector<Tensor> images;
  std::vector<Option> options;  // preferred first, fallback last
};

Setup build(std::uint64_t seed) {
  Setup s;
  netcut::util::Rng in_rng(netcut::util::derive_seed(seed, "perfbench/serve/images"));
  for (int i = 0; i < kImages; ++i)
    s.images.push_back(Tensor::randn(netcut::tensor::Shape::chw(3, kResolution, kResolution), in_rng, 0.5f));

  netcut::util::Rng w_rng(netcut::util::derive_seed(kWeightSeed, "serve"));
  nn::Graph trunk = netcut::zoo::build_trunk(netcut::zoo::NetId::kMobileNetV1_050, kResolution);
  nn::init_graph(trunk, w_rng);
  const std::vector<int> cuts = netcut::core::blockwise_cutpoints(trunk);
  for (const int cut : {trunk.output_node(), cuts[cuts.size() / 2]}) {
    const nn::Graph fused = netcut::quant::fold_batchnorm(
        netcut::core::build_trn(trunk, cut, netcut::core::HeadConfig{}, w_rng));
    Option o;
    o.name = netcut::core::trn_name("MobileNetV1-0.50", trunk, cut);
    o.fused = fused;
    o.batched = std::make_unique<nn::Network>(fused);
    nn::Network single(fused);  // the reference: single-image forwards
    for (const Tensor& img : s.images) o.ref.push_back(single.forward(img));
    // Host batch curve: the fastest of the timed batched forwards at each
    // size, the nominal service time; a burst of host contention during
    // set-up must not inflate it until admission sheds everything.
    o.fastest_ms.assign(kMaxBatch + 1, 0.0);
    for (int b = 1; b <= kMaxBatch; ++b) {
      std::vector<const Tensor*> in;
      for (int i = 0; i < b; ++i) in.push_back(&s.images[static_cast<std::size_t>(i)]);
      o.batched->forward_batch(in);  // plans this batch size
      std::vector<double> ms;
      for (int r = 0; r < 15; ++r) {
        const auto t0 = Clock::now();
        o.batched->forward_batch(in);
        ms.push_back(ms_between(t0, Clock::now()));
      }
      o.fastest_ms[static_cast<std::size_t>(b)] = percentile(ms, 0.0);
    }
    // The Fleet requires a curve non-decreasing in batch size.
    for (int b = 2; b <= kMaxBatch; ++b)
      o.fastest_ms[static_cast<std::size_t>(b)] =
          std::max(o.fastest_ms[static_cast<std::size_t>(b)], o.fastest_ms[static_cast<std::size_t>(b - 1)]);
    s.options.push_back(std::move(o));
  }
  return s;
}

struct Served {
  std::uint64_t id;
  double start_ms, done_ms;  // wall, from the run's epoch
  std::size_t option;
  Tensor output;
};

struct StepRecord {
  double wall_ms;
  int batch;
  std::size_t option;
};

struct PassResult {
  std::vector<Arrival> schedule;
  std::vector<std::uint64_t> shed_ids;
  std::vector<Served> served;
  std::vector<StepRecord> steps;
  std::vector<double> submit_us, gen_late_ms;
  double phase_s[2] = {0.0, 0.0};  // steady and overload phase
  double wall_ms = 0.0;            // from the first due time to the drained fleet
  bool timed_out = false;
};

/// One open-loop pass over a fresh fleet. With `trace`, spans are recorded
/// around every submit and step.
PassResult run_pass(Setup& s, double seconds, std::uint64_t seed, Trace* trace) {
  PassResult pr;
  pr.phase_s[0] = seconds * kSteadyShare;
  pr.phase_s[1] = seconds - pr.phase_s[0];
  pr.schedule = poisson_schedule({{kSteadyRate, pr.phase_s[0]}, {kOverloadRate, pr.phase_s[1]}}, seed);

  std::vector<serve::FleetWorker> workers(1);
  workers[0].name = "replica0/host";
  for (Option& o : s.options) {
    const std::vector<double> fastest = o.fastest_ms;
    workers[0].options.push_back({o.name, o.batched.get(), [fastest](int b) {
      return kCurveHeadroom * fastest[static_cast<std::size_t>(std::clamp(b, 1, kMaxBatch))];
    }, {}});
  }
  workers[0].serve.max_batch = kMaxBatch;
  workers[0].serve.nominal_deadline_ms = kSlackMs;
  workers[0].serve.jitter_sigma = 0.0;  // service time is the real clock's
  workers[0].serve.seed = netcut::util::derive_seed(seed, "perfbench/serve/replica");
  workers[0].serve.faults = &netcut::hw::FaultModel::disabled();
  serve::FleetConfig fc;
  fc.classes = {serve::SloClass{"standard", kSlackMs, kSlackMs, 1.0}};
  fc.seed = netcut::util::derive_seed(seed, "perfbench/serve/fleet");
  fc.faults = &netcut::hw::FaultModel::disabled();
  serve::Fleet fleet(std::move(workers), fc);

  const auto epoch = Clock::now();
  // The stepper sleeps instead of spinning: on `wake` while nothing is
  // queued, until the replica frees up while something is.
  std::mutex wake_mu;
  std::condition_variable wake;
  std::size_t submitted = 0;  // guarded by wake_mu
  bool ingress_done = false;  // guarded by wake_mu

  std::thread ingress([&] {
    for (std::size_t i = 0; i < pr.schedule.size(); ++i) {
      const Arrival& a = pr.schedule[i];
      std::this_thread::sleep_until(epoch + std::chrono::duration<double, std::milli>(a.due_ms));
      serve::Request r;
      r.id = i;
      r.arrival_ms = a.due_ms;
      r.deadline_ms = a.due_ms + kSlackMs;
      r.input = &s.images[i % kImages];
      const auto t0 = Clock::now();
      const double now = ms_between(epoch, t0);
      const std::optional<serve::Completion> rejected = fleet.submit(r, now);
      const auto t1 = Clock::now();
      if (trace != nullptr) {
        trace->add("serve.submit", t0, t1);
        pr.submit_us.push_back(ms_between(t0, t1) * 1000.0);
        pr.gen_late_ms.push_back(now - a.due_ms);
      }
      if (rejected) pr.shed_ids.push_back(rejected->id);
      {
        std::lock_guard<std::mutex> lock(wake_mu);
        ++submitted;
      }
      wake.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(wake_mu);
      ingress_done = true;
    }
    wake.notify_one();
  });

  // The stepper: the only caller of Fleet::step (and so of the pool).
  const double give_up_ms = seconds * 1000.0 + 30000.0;
  std::vector<std::uint64_t> step_shed;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> step_spans;
  std::size_t seen = 0;
  while (true) {
    bool done_submitting = false;
    {
      std::lock_guard<std::mutex> lock(wake_mu);
      done_submitting = ingress_done;
      seen = submitted;
    }
    const auto t0 = Clock::now();
    const double now = ms_between(epoch, t0);
    std::vector<serve::Completion> comps = fleet.step(now);
    const auto t1 = Clock::now();
    if (comps.empty()) {
      if (done_submitting && fleet.backlog() == 0) break;
      if (ms_between(epoch, t1) > give_up_ms) {
        pr.timed_out = true;
        break;
      }
      if (fleet.backlog() == 0) {
        std::unique_lock<std::mutex> lock(wake_mu);
        wake.wait_for(lock, std::chrono::milliseconds(5), [&] { return submitted != seen || ingress_done; });
      } else {
        // Queued work, replica busy: sleep until it frees (capped, in case
        // no worker is busy and the queue waits on something else).
        const double free_ms = std::min(fleet.next_free_after(now), now + 0.2);
        std::this_thread::sleep_until(epoch + std::chrono::duration<double, std::milli>(free_ms));
      }
      continue;
    }
    const double start = ms_between(epoch, t0), done = ms_between(epoch, t1);
    int batch = 0;
    for (serve::Completion& c : comps) {
      if (c.rejected) {
        step_shed.push_back(c.id);
        continue;
      }
      ++batch;
      pr.served.push_back({c.id, start, done, c.option, std::move(c.output)});
    }
    if (batch > 0) {
      pr.steps.push_back({done - start, batch, pr.served.back().option});
      if (trace != nullptr) step_spans.emplace_back(t0, t1);
    }
  }
  ingress.join();
  pr.wall_ms = ms_between(epoch, Clock::now());
  pr.shed_ids.insert(pr.shed_ids.end(), step_shed.begin(), step_shed.end());
  if (trace != nullptr)
    for (const auto& [t0, t1] : step_spans) trace->add("serve.step", t0, t1);
  return pr;
}

/// Output checks: conservation, and every served output bitwise equal to
/// the single-image forward of the option that served it.
void check(const Setup& s, const PassResult& pr, Result& out) {
  out.attempted += static_cast<std::int64_t>(pr.schedule.size());
  if (pr.timed_out) out.fail("serve: the fleet did not drain before the time limit");
  if (pr.served.empty()) out.fail("serve: no request was served");
  std::vector<std::uint64_t> served_ids;
  for (const Served& r : pr.served) served_ids.push_back(r.id);
  for (const std::string& p : conservation_violations(pr.schedule.size(), pr.shed_ids, served_ids))
    out.fail("serve: conservation: " + p);
  for (const Served& r : pr.served) {
    if (r.id >= pr.schedule.size()) continue;  // reported by the conservation check
    const Tensor& ref = s.options[r.option].ref[r.id % kImages];
    if (r.output.numel() != ref.numel() ||
        std::memcmp(r.output.data(), ref.data(), static_cast<std::size_t>(ref.numel()) * sizeof(float)) != 0)
      out.fail("serve: request " + std::to_string(r.id) + " output differs from the single-image forward");
  }
}

struct Summary {
  std::vector<double> latency_ms;  // steady phase, served requests
  double miss_rate = 0.0;          // (missed + shed) / submitted, both phases
  double steady_miss_rate = 0.0;   // the same, steady phase only
  std::size_t steady_submitted = 0;
  double goodput_rps = 0.0;        // overload phase, in-deadline completions per second
};

Summary summarize(const PassResult& pr) {
  Summary st;
  // Arrival::phase: 0 steady, 1 overload.
  std::size_t submitted[2] = {0, 0}, bad[2] = {0, 0}, good = 0;
  for (const Arrival& a : pr.schedule) ++submitted[a.phase];
  for (std::uint64_t id : pr.shed_ids)
    if (id < pr.schedule.size()) ++bad[pr.schedule[id].phase];
  for (const Served& r : pr.served) {
    if (r.id >= pr.schedule.size()) continue;
    const Arrival& a = pr.schedule[r.id];
    const bool in_time = r.done_ms <= a.due_ms + kSlackMs;
    if (a.phase == 0) st.latency_ms.push_back(r.done_ms - a.due_ms);
    if (!in_time) ++bad[a.phase];
    if (in_time && a.phase == 1) ++good;
  }
  st.miss_rate = static_cast<double>(bad[0] + bad[1]) / static_cast<double>(std::max<std::size_t>(pr.schedule.size(), 1));
  st.steady_miss_rate = static_cast<double>(bad[0]) / static_cast<double>(std::max<std::size_t>(submitted[0], 1));
  st.steady_submitted = submitted[0];
  st.goodput_rps = static_cast<double>(good) / pr.phase_s[1];
  return st;
}

}  // namespace

void run_serve(const Options& opt, Result& out) {
  netcut::util::set_num_threads(kPoolThreads);
  Setup s;
  // Each set-up measures the batch curve; the replica gets the fastest
  // forward of all of them at each batch size. A single set-up's curve is a
  // snapshot of under a second of the host, and goodput follows its price.
  std::vector<std::vector<double>> fastest;
  const double setup_s = median_setup_s(
      kSetupRepeats,
      [&] {
        s = build(opt.seed);
        if (fastest.empty())
          for (const Option& o : s.options) fastest.push_back(o.fastest_ms);
        for (std::size_t i = 0; i < fastest.size(); ++i)
          for (std::size_t b = 0; b < fastest[i].size(); ++b)
            fastest[i][b] = std::min(fastest[i][b], s.options[i].fastest_ms[b]);
      },
      [&] { s = Setup{}; });
  for (std::size_t i = 0; i < fastest.size(); ++i) s.options[i].fastest_ms = fastest[i];
  if (opt.corrupt_reference) s.options[0].ref[0].data()[0] += 0.5f;

  const double pass_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const PassResult plain = run_pass(s, pass_s, opt.seed, nullptr);
  check(s, plain, out);
  const Summary st = summarize(plain);

  char note[128];
  out.end_to_end.push_back({"setup_s", setup_s, "s", kSetupRepeats, ""});
  std::snprintf(note, sizeof(note), "steady phase %.0f req/s, due time to step() return", kSteadyRate);
  out.end_to_end.push_back({"latency_ms", median(st.latency_ms), "ms", st.latency_ms.size(), note});
  push_latency(out, "serve", st.latency_ms, "steady phase");
  // Goodput and miss rates are printed, not gated. Goodput follows the
  // price the set-up's batch curve sets, and that curve follows the shared
  // host's speed during set-up: over five seeds its quartile spread read
  // 0.38 of its median, past any bound allowed. The steady miss rate reads
  // about 0 on a healthy build, and over both phases the overload phase's
  // requests dominate, so that rate only mirrors the goodput.
  out.ungated.push_back({"serve_goodput_rps", st.goodput_rps, "1/s", 0,
                         "in-deadline completions per wall second, overload phase of " +
                             json_number(plain.phase_s[1]) + " s at " + json_number(kOverloadRate) + " req/s offered"});
  std::snprintf(note, sizeof(note), "(missed + shed) / submitted, both phases, deadline %.1f ms", kSlackMs);
  out.ungated.push_back({"serve_miss_rate", st.miss_rate, "ratio", plain.schedule.size(), note});
  out.ungated.push_back({"serve_steady_miss_rate", st.steady_miss_rate, "ratio", st.steady_submitted,
                         "the same, steady phase only"});
  if (!opt.trace) return;

  PassResult traced = run_pass(s, pass_s, opt.seed, &out.trace);
  check(s, traced, out);
  const Summary tst = summarize(traced);
  out.per_layer.push_back({"trace_overhead_pct", (median(tst.latency_ms) - median(st.latency_ms)) / median(st.latency_ms) * 100.0,
                           "%", 0, "steady-phase p50, traced vs untraced pass"});
  pass_shares(out.trace, traced.wall_ms, out);
  std::vector<SuiteNet> nets;
  for (const Option& o : s.options) nets.push_back({o.name, o.fused});
  layer_suite(nets, s.images, opt.seed, out);

  // The serving layer's own numbers, from the traced pass: printed, not in
  // the result line (the other workloads serve nothing).
  const Option& pref = s.options.front();
  out.ungated.push_back({"nn.serve_trn.batch1_ms", pref.fastest_ms[1], "ms", 15 * kSetupRepeats, pref.name + " forward_batch, fastest of the set-up runs"});
  out.ungated.push_back({"nn.serve_trn.batch8_ms", pref.fastest_ms[kMaxBatch], "ms", 15 * kSetupRepeats, pref.name + " forward_batch, fastest of the set-up runs"});
  out.ungated.push_back({"serve.submit_us_p50", median(traced.submit_us), "us", traced.submit_us.size(), ""});

  std::vector<double> overhead, step_ms, wait_ms;
  double batch_sum = 0.0;
  std::size_t fallback = 0;
  for (const StepRecord& r : traced.steps) {
    overhead.push_back(r.wall_ms - s.options[r.option].fastest_ms[static_cast<std::size_t>(r.batch)]);
    step_ms.push_back(r.wall_ms);
    batch_sum += r.batch;
  }
  for (const Served& r : traced.served) {
    if (r.id >= traced.schedule.size()) continue;  // reported by the conservation check
    wait_ms.push_back(r.start_ms - traced.schedule[r.id].due_ms);
    fallback += r.option != 0 ? 1 : 0;
  }
  out.ungated.push_back({"serve.step_overhead_ms_p50", median(overhead), "ms", overhead.size(), "step wall minus the fastest set-up forward"});
  out.ungated.push_back({"serve.queue_wait_ms_p50", median(wait_ms), "ms", wait_ms.size(), ""});
  out.ungated.push_back({"serve.queue_wait_ms_p90", percentile(wait_ms, 90.0), "ms", wait_ms.size(), ""});
  out.ungated.push_back({"serve.step_ms_max", percentile(step_ms, 100.0), "ms", step_ms.size(), ""});
  out.ungated.push_back({"serve.batch_mean", batch_sum / static_cast<double>(step_ms.size()), "count", step_ms.size(), ""});
  out.ungated.push_back({"serve.shed_rate", static_cast<double>(traced.shed_ids.size()) / static_cast<double>(traced.schedule.size()),
                         "ratio", traced.schedule.size(), "all phases"});
  out.ungated.push_back({"serve.fallback_share", static_cast<double>(fallback) / static_cast<double>(traced.served.size()),
                         "ratio", traced.served.size(), "served by the mid-cut fallback"});
  out.ungated.push_back({"serve.gen_late_ms_p99", percentile(traced.gen_late_ms, 99.0), "ms", traced.gen_late_ms.size(),
                         "how late the load generator submitted"});
}

}  // namespace perfbench
