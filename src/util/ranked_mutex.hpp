// RankedMutex + CondVar + MutexLock: the synchronization vocabulary of the
// concurrency-checked subsystems (serve::, util::ThreadPool, the core
// evaluator's caches).
//
// Three layers share these types, each catching a class of bug the others
// cannot:
//
//  * Compile time — every RankedMutex is a Clang thread-safety capability
//    (util/thread_annotations.hpp), so `clang++ -Wthread-safety` proves
//    guarded fields are only touched under their mutex.
//  * Model checking — under a util::sched::Scheduler run, lock/unlock/
//    wait/notify become deterministic scheduling points, so the schedule
//    explorer can construct the interleavings TSan only samples.
//  * Runtime lock discipline — with NETCUT_LOCKCHECK=1 (debug analyzer,
//    off by default, zero-cost fast path: one relaxed atomic load) every
//    acquisition is checked against the per-thread held stack:
//      - lock-order ranking: acquiring a mutex whose rank is <= the
//        highest rank already held aborts with both stacks' ranks — the
//        first inversion dies loudly instead of deadlocking in production
//        once a year. Ranks are strictly increasing along any nesting
//        chain; the table lives below (util::rank) and in DESIGN.md §13.
//      - held-while-blocking: a CondVar wait while holding any *other*
//        ranked mutex aborts — a thread parked on a condvar must not fence
//        off unrelated state (the classic convoy/deadlock seed).
//
// The production fast path is one branch per operation on top of
// std::mutex; none of the three layers costs anything unless enabled.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/schedule.hpp"
#include "util/thread_annotations.hpp"

namespace netcut::util {

/// Lock-rank table: a thread may only acquire a mutex of strictly higher
/// rank than every mutex it already holds. Gaps are deliberate (room for
/// future locks without renumbering).
namespace rank {
inline constexpr int kFleet = 10;        // serve::Fleet admission/accounting
inline constexpr int kServer = 20;       // serve::BatchServer accounting
inline constexpr int kQueue = 40;        // serve::RequestQueue heap (per shard)
inline constexpr int kWatchdog = 50;     // app::MissRateWatchdog window
inline constexpr int kEvalStates = 60;   // core::TrnEvaluator materialization
inline constexpr int kEvalCache = 61;    // core::TrnEvaluator accuracy memo
inline constexpr int kPool = 90;         // util::ThreadPool job state (leaf)
}  // namespace rank

class NETCUT_CAPABILITY("mutex") RankedMutex {
 public:
  RankedMutex(int rank, const char* name) : rank_(rank), name_(name) {}
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() NETCUT_ACQUIRE();
  bool try_lock() NETCUT_TRY_ACQUIRE(true);
  void unlock() NETCUT_RELEASE();

  int rank() const { return rank_; }
  const char* name() const { return name_; }

  /// Runtime lock-discipline analyzer master switch: latched from
  /// NETCUT_LOCKCHECK=1 on first use; tests override programmatically.
  static bool check_enabled();
  static void set_check_enabled(bool on);

 private:
  friend class CondVar;
  /// Release without a scheduling point — CondVar::wait pairs this with
  /// the waiter registration so the two are atomic under the schedule.
  void unlock_for_wait();
  void check_order() const NETCUT_NO_THREAD_SAFETY_ANALYSIS;
  void note_acquired() NETCUT_NO_THREAD_SAFETY_ANALYSIS;
  void note_released() NETCUT_NO_THREAD_SAFETY_ANALYSIS;

  std::mutex mu_;
  int rank_;
  const char* name_;
};

/// RAII guard (the tree's std::lock_guard for RankedMutex — a first-party
/// type so the scoped-capability annotation exists even where the standard
/// library's guards carry none).
class NETCUT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(RankedMutex& m) NETCUT_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() NETCUT_RELEASE() { m_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  RankedMutex& m_;
};

/// Condition variable for RankedMutex. Scheduler-aware (waits and notifies
/// are deterministic scheduling points under a model-check run) and
/// discipline-checked (held-while-blocking aborts under NETCUT_LOCKCHECK
/// unless allow_held_waits — granted only to the ThreadPool's completion
/// condvar, where the pool cannot know what its caller holds).
class CondVar {
 public:
  explicit CondVar(bool allow_held_waits = false)
      : allow_held_waits_(allow_held_waits) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Naked wait: returns on any notify. Prefer the predicate overload —
  /// this exists because real protocols (and deliberately buggy test
  /// protocols) need it.
  void wait(RankedMutex& m) NETCUT_REQUIRES(m);

  /// Callers must hold m; the body is exempt from analysis (it re-enters
  /// wait(m), whose unlock/relock cycle the checker cannot follow, and the
  /// predicate's own REQUIRES cannot be unified with `m` across the
  /// template boundary). Annotate the predicate lambda itself with
  /// NETCUT_REQUIRES(<its mutex>) so *its* body stays checked.
  template <class Pred>
  void wait(RankedMutex& m, Pred pred) NETCUT_REQUIRES(m)
      NETCUT_NO_THREAD_SAFETY_ANALYSIS {
    while (!pred()) wait(m);
  }

  void notify_one();
  void notify_all();

 private:
  std::condition_variable_any cv_;
  bool allow_held_waits_;
};

}  // namespace netcut::util
