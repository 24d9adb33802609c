// Greedy deadline-aware batch forming.
//
// Given the EDF-ordered backlog, pick the largest batch (up to the size
// cap) whose estimated batched latency still meets the earliest deadline in
// the batch. Because the backlog is EDF-ordered, the earliest deadline of
// any prefix is the head's deadline — so the policy needs only the head
// and the backlog size, which is exactly what RequestQueue::take hands it
// (the queue no longer materializes a sorted view at all). The search is a
// single scan over the batch-latency curve — which the device model makes
// concave in batch size (launch once, weights stream once), exactly the
// amortization the batcher is there to exploit.
//
// The head request is always served even when it can no longer meet its
// deadline — completing it late (and letting the miss feed the watchdog)
// beats letting it starve the queue. A hopeless head rides the *largest*
// batch: nothing can save it, so the policy maximizes drain rate instead
// of wasting a near-full single-request launch on it (serving late heads
// one at a time divides throughput by the batch size exactly when the
// queue most needs the amortization, and under saturation that collapse
// is self-sustaining).
#pragma once

#include <cstddef>
#include <functional>

namespace netcut::serve {

struct BatcherConfig {
  int max_batch = 8;
};

/// Thread-safety: a BatchFormer is immutable after construction (choose is
/// const and touches only the config and the latency callback), so it
/// needs no lock of its own. Callers must ensure the latency callback is
/// itself safe to invoke concurrently — the server's callback reads the
/// watchdog's current option, which is internally synchronized. Note that
/// RequestQueue::take invokes choose() while holding the queue lock (rank
/// kQueue), so the callback may acquire only higher-ranked locks (the
/// watchdog's kWatchdog qualifies).
class BatchFormer {
 public:
  /// `batch_latency_ms(n)` estimates the service time of a batch of n on
  /// the option currently in service (e.g. hw::DeviceModel::batch_curve or
  /// a measured curve). It must be non-decreasing in n.
  BatchFormer(BatcherConfig config, std::function<double(int)> batch_latency_ms);

  /// Batch size to take from an EDF-ordered backlog of `pending` requests
  /// whose head deadline is `head_deadline_ms`, at time `now_ms`: the
  /// largest n <= min(max_batch, pending) with
  ///   now_ms + batch_latency_ms(n) <= head_deadline_ms,
  /// and at least 1 when the backlog is non-empty.
  std::size_t choose(double now_ms, double head_deadline_ms, std::size_t pending) const;

  const BatcherConfig& config() const { return config_; }

 private:
  BatcherConfig config_;
  std::function<double(int)> batch_latency_ms_;
};

}  // namespace netcut::serve
