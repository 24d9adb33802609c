// Thread-safe request queue between submitting clients and the batch
// server. Clients push; the server atomically takes the earliest-deadline
// prefix chosen by its batching policy.
//
// The pending set is an incrementally maintained binary min-heap keyed by
// (deadline, id): push is O(log n) and take pops only the k requests it
// returns (O(k log n)), not a full EDF re-sort per take (O(n log n) on every
// batch under a deep backlog). Because (deadline, id) is a total order,
// popping the k smallest yields exactly the sorted prefix a full sort would:
// ServeQueue.HeapPopOrderMatchesFullEdfSort checks the two orders agree.
//
// The head inspection and the pop still happen inside one critical section,
// so a concurrently arriving request can never split the batching policy's
// view of the queue from what is actually taken. Ties on deadline break by
// id, which keeps the order — and therefore every downstream number —
// deterministic under the simulated clock.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "serve/request.hpp"
#include "util/ranked_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace netcut::serve {

class RequestQueue {
 public:
  /// Enqueue one request. Wakes one waiter.
  void push(Request r);

  /// Re-enqueue a request that is already inside the system (stolen from a
  /// sibling shard). Unlike push, this is allowed on a closed queue:
  /// close() stops new arrivals, but in-flight work may still migrate
  /// between shards while the fleet drains.
  void reinsert(Request r);

  std::size_t size() const;
  bool empty() const;

  /// Atomically: ask `choose(head, pending)` — where `head` is the
  /// earliest-(deadline, id) pending request and `pending` the backlog
  /// size — how many requests to take, then pop and return that many in
  /// EDF order. Because the backlog is EDF-ordered, the head carries the
  /// earliest deadline of any prefix, which is all a deadline-aware policy
  /// needs (see BatchFormer). `choose` must return a count in
  /// [0, pending]; it runs under the queue lock, so it must not touch the
  /// queue. Returns empty when the queue is empty (choose is not called).
  std::vector<Request> take(
      const std::function<std::size_t(const Request& head, std::size_t pending)>& choose);

  /// Atomically pop up to `max_n` of the earliest-(deadline, id) pending
  /// requests, in EDF order — the work-stealing primitive: a dry shard
  /// steals the victim's most urgent work, so stolen requests are served
  /// in the same global EDF order a single queue would have used. Returns
  /// empty when the queue is empty. Allowed on a closed queue (draining).
  std::vector<Request> steal(std::size_t max_n);

  /// Atomically pop *everything*, in EDF order — the failover primitive: a
  /// dead worker's shard is emptied in one critical section, so a
  /// concurrent stealer sees either the full heap or nothing, never a
  /// half-drained prefix. Allowed on a closed queue.
  std::vector<Request> drain();

  /// Block until the queue is non-empty or closed. Returns true when there
  /// is work, false when the queue is closed and drained. The simulated
  /// clock never calls this; live (demo) servers do.
  bool wait_nonempty();

  /// No more pushes will arrive; wakes all waiters.
  void close();
  bool closed() const;

 private:
  std::vector<Request> pop_locked(std::size_t n) NETCUT_REQUIRES(mu_);

  mutable util::RankedMutex mu_{util::rank::kQueue, "serve/queue"};
  util::CondVar cv_;
  std::vector<Request> heap_ NETCUT_GUARDED_BY(mu_);  // min-heap over (deadline, id)
  bool closed_ NETCUT_GUARDED_BY(mu_) = false;
};

}  // namespace netcut::serve
