// ContentionLock: an exclusive latch instrumented exactly the way the paper
// measures it.
//
// The paper defines a *lock contention* as "a lock request [that] cannot be
// immediately satisfied and a process context switch occurs" (§IV-D), and
// reports *average lock contention* as contentions per million page
// accesses. This lock counts:
//   - acquisitions:     total successful Lock()/TryLock() acquisitions
//   - contentions:      Lock() calls that could not acquire immediately and
//                       had to block
//   - trylock failures: TryLock() calls that returned false (these do NOT
//                       block, hence are not contentions — this distinction
//                       is what makes the BP-Wrapper TryLock protocol win)
//   - hold/wait time:   nanoseconds spent holding / waiting for the lock,
//                       which backs the paper's Figure 2
//
// Timing instrumentation can be disabled (kCounts mode) so that throughput
// experiments do not pay two clock reads per critical section.
//
// When the global trace recorder is enabled (obs/trace_recorder.h), any
// instrumented lock additionally emits lock-wait and lock-hold spans so a
// Chrome trace shows exactly when each critical section ran — kCounts mode
// then pays the clock reads only while tracing is on.
//
// ContentionLock is a Clang Thread Safety Analysis *capability*: state
// annotated BPW_GUARDED_BY(lock) can only be touched on paths that provably
// hold it, and a clang build with -Wthread-safety -Werror turns protocol
// violations into compile errors. The implementations themselves are opted
// out of the body analysis (the documented pattern for lock wrappers: the
// analysis cannot see through the underlying std::mutex); TSan verifies the
// internals dynamically instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "obs/prof_site.h"
#include "util/cacheline.h"
#include "util/thread_annotations.h"

namespace bpw {

/// Aggregated statistics snapshot of a ContentionLock.
struct LockStats {
  uint64_t acquisitions = 0;       ///< successful lock acquisitions
  uint64_t contentions = 0;        ///< blocking waits (the paper's metric)
  uint64_t trylock_failures = 0;   ///< non-blocking failed attempts
  uint64_t hold_nanos = 0;         ///< total time the lock was held
  uint64_t wait_nanos = 0;         ///< total time spent blocked waiting

  LockStats& operator+=(const LockStats& o) {
    acquisitions += o.acquisitions;
    contentions += o.contentions;
    trylock_failures += o.trylock_failures;
    hold_nanos += o.hold_nanos;
    wait_nanos += o.wait_nanos;
    return *this;
  }
};

/// Instrumentation level for a ContentionLock.
enum class LockInstrumentation {
  kNone,    ///< plain lock, no counters (fast path for production use)
  kCounts,  ///< count acquisitions / contentions / trylock failures
  kTiming,  ///< kCounts plus hold & wait nanoseconds (two clock reads)
};

/// An exclusive lock with a non-blocking TryLock and contention accounting.
/// Internally a std::mutex: on an over-committed machine a blocking mutex is
/// what a DBMS uses (PostgreSQL lwlocks block after a short spin), and a
/// failed immediate acquisition followed by blocking is precisely the
/// paper's contention event.
class BPW_CAPABILITY("mutex") ContentionLock {
 public:
  explicit ContentionLock(
      LockInstrumentation instr = LockInstrumentation::kCounts)
      : instr_(instr) {}

  ContentionLock(const ContentionLock&) = delete;
  ContentionLock& operator=(const ContentionLock&) = delete;

  /// Acquires the lock, blocking if necessary. A blocked acquisition is
  /// recorded as one contention event.
  void Lock() BPW_ACQUIRE() BPW_NO_THREAD_SAFETY_ANALYSIS;

  /// Attempts to acquire without blocking. Never records a contention.
  /// @return true if the lock was acquired.
  bool TryLock() BPW_TRY_ACQUIRE(true) BPW_NO_THREAD_SAFETY_ANALYSIS;

  /// Releases the lock.
  void Unlock() BPW_RELEASE() BPW_NO_THREAD_SAFETY_ANALYSIS;

  /// Returns a consistent snapshot of the counters.
  LockStats stats() const;

  /// Zeroes all counters. Safe against concurrent lock traffic: each
  /// counter is reset with an atomic store, so an in-flight increment either
  /// lands in the new epoch or is overwritten whole — never torn. A
  /// snapshot taken while traffic runs is therefore a consistent "since
  /// last reset" view, which is what lets the stats sampler reset/snapshot
  /// mid-run.
  void ResetStats();

  LockInstrumentation instrumentation() const { return instr_; }

  /// Attributes this lock's acquisitions to a contention-profiler site
  /// (obs/contention_profiler.h): pass a BPW_PROF_SITE(...) root-path id.
  /// Several locks may share one site — every partition's policy lock binds
  /// the same site and aggregates into one report row. Call at setup time,
  /// before the lock sees concurrent traffic; recording additionally requires
  /// instrumentation != kNone (kNone keeps its zero-accounting fast path).
  /// Recording compiles out under -DBPW_PROF=0 (the binding itself is kept
  /// so call sites need no conditional code).
  void BindProfSite(obs::ProfSiteId site) { prof_site_ = site; }

 private:
  std::mutex mu_;
  LockInstrumentation instr_;
  uint64_t lock_acquired_nanos_ = 0;  // guarded by mu_
  obs::ProfSiteId prof_site_ = obs::kInvalidProfSite;

  // Counters are written under contention from many threads; keep them on
  // separate cache lines from the mutex word.
  alignas(kCacheLineSize) std::atomic<uint64_t> acquisitions_{0};
  std::atomic<uint64_t> contentions_{0};
  std::atomic<uint64_t> trylock_failures_{0};
  std::atomic<uint64_t> hold_nanos_{0};
  std::atomic<uint64_t> wait_nanos_{0};
};

/// RAII guard for ContentionLock: acquires (blocking) in the constructor,
/// releases in the destructor.
class BPW_SCOPED_CAPABILITY ContentionLockGuard {
 public:
  explicit ContentionLockGuard(ContentionLock& lock) BPW_ACQUIRE(lock)
      : lock_(lock) {
    lock_.Lock();
  }
  ~ContentionLockGuard() BPW_RELEASE() { lock_.Unlock(); }

  ContentionLockGuard(const ContentionLockGuard&) = delete;
  ContentionLockGuard& operator=(const ContentionLockGuard&) = delete;

 private:
  ContentionLock& lock_;
};

/// Adopting RAII guard for a lock already acquired via TryLock().
///
/// The BP-Wrapper commit fast path is
///     if (lock_.TryLock()) { ...commit...; }
/// and before this guard existed the "...commit..." block had to end in a
/// manual Unlock() — a leak-on-early-return footgun, and impossible to
/// annotate cleanly. Adopting the lock into a scoped capability keeps the
/// TRY_ACQUIRE annotation on TryLock() itself and guarantees the release:
///
///     if (lock_.TryLock()) {
///       ContentionLockAdoptGuard guard(lock_);  // adopts, will Unlock()
///       ...commit may return early...
///     }
///
/// The constructor REQUIRES the lock: under -Wthread-safety it is a compile
/// error to adopt a lock the current path does not hold.
class BPW_SCOPED_CAPABILITY ContentionLockAdoptGuard {
 public:
  explicit ContentionLockAdoptGuard(ContentionLock& lock) BPW_REQUIRES(lock)
      : lock_(lock) {}
  ~ContentionLockAdoptGuard() BPW_RELEASE() { lock_.Unlock(); }

  ContentionLockAdoptGuard(const ContentionLockAdoptGuard&) = delete;
  ContentionLockAdoptGuard& operator=(const ContentionLockAdoptGuard&) =
      delete;

 private:
  ContentionLock& lock_;
};

}  // namespace bpw
