// A small test-and-test-and-set spinlock, used for short fixed-length
// critical sections (page-table buckets) where blocking would cost more
// than the protected work.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/prof_site.h"
#include "testing/schedule_point.h"
#include "util/clock.h"
#include "util/thread_annotations.h"

namespace bpw {

/// TTAS spinlock. Suitable only for critical sections of a few dozen
/// instructions (hash-bucket lookups); longer sections must use
/// ContentionLock.
///
/// Annotated as a thread-safety capability; bodies are exempt from the
/// analysis (the documented pattern for lock implementations — the flag is
/// an atomic the analysis cannot track).
class BPW_CAPABILITY("spinlock") SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() BPW_ACQUIRE() BPW_NO_THREAD_SAFETY_ANALYSIS {
    BPW_SCHEDULE_POINT_OBJ("spinlock.lock", this);
    // Under the cooperative model checker the caller parks here until the
    // lock model guarantees the exchange below succeeds first try, so the
    // spin loop never busy-waits one-thread-at-a-time.
    BPW_SCHED_LOCK_WILL_ACQUIRE(this, "spinlock.lock");
#if BPW_PROF
    // Latched once per acquisition so the waiter enter/exit pair stays
    // balanced if the global flag toggles mid-spin. Unbound or disabled:
    // one relaxed load + compare, then the untimed fast path below.
    const bool prof =
        prof_site_ != obs::kInvalidProfSite && obs::ProfilerEnabled();
    bool contended = false;
    uint64_t wait_start = 0;
#endif
    while (true) {
      if (!flag_.exchange(true, std::memory_order_acquire)) {
        BPW_SCHED_LOCK_ACQUIRED(this, "spinlock.lock");
#if BPW_PROF
        if (prof) {
          const uint64_t now = NowNanos();
          if (contended) {
            obs::ProfWaiterExit(prof_site_);
            obs::ProfRecordAcquire(prof_site_, true, now - wait_start);
          } else {
            obs::ProfRecordAcquire(prof_site_, false, 0);
          }
          prof_acquired_nanos_ = now;
        }
#endif
        return;
      }
#if BPW_PROF
      if (prof && !contended) {
        // First failed exchange: this acquisition is contended; the spin
        // time from here to the successful exchange is its wait.
        contended = true;
        wait_start = NowNanos();
        obs::ProfWaiterEnter(prof_site_);
      }
#endif
      while (flag_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
  }

  bool try_lock() BPW_TRY_ACQUIRE(true) BPW_NO_THREAD_SAFETY_ANALYSIS {
    BPW_SCHEDULE_POINT_OBJ("spinlock.try_lock", this);
    const bool acquired = !flag_.load(std::memory_order_relaxed) &&
                          !flag_.exchange(true, std::memory_order_acquire);
    if (acquired) {
#if BPW_PROF
      if (prof_site_ != obs::kInvalidProfSite && obs::ProfilerEnabled()) {
        // A successful try_lock is by definition uncontended; a failed one
        // never blocks and is not a contention.
        prof_acquired_nanos_ = NowNanos();
        obs::ProfRecordAcquire(prof_site_, false, 0);
      }
#endif
      BPW_SCHED_LOCK_ACQUIRED(this, "spinlock.try_lock");
    } else {
      BPW_SCHED_LOCK_TRY_FAILED(this, "spinlock.try_lock");
    }
    return acquired;
  }

  void unlock() BPW_RELEASE() BPW_NO_THREAD_SAFETY_ANALYSIS {
#if BPW_PROF
    // prof_acquired_nanos_ is written and cleared under the lock, so a
    // nonzero value always belongs to this critical section. An enable
    // mid-hold records no hold (never a torn one); a disable mid-hold
    // records the full hold — either way wait/hold stay per-acquisition
    // consistent.
    if (prof_acquired_nanos_ != 0) {
      obs::ProfRecordHold(prof_site_, NowNanos() - prof_acquired_nanos_);
      prof_acquired_nanos_ = 0;
    }
#endif
    flag_.store(false, std::memory_order_release);
    BPW_SCHED_LOCK_RELEASED(this, "spinlock.unlock");
  }

  /// Attributes acquisitions to a contention-profiler site: pass a
  /// BPW_PROF_SITE(...) root-path id. Many locks may share one site and
  /// then aggregate into one row.
  /// Setup-time only — not synchronized against concurrent lock traffic.
  /// Recording compiles out under -DBPW_PROF=0.
  void BindProfSite(obs::ProfSiteId site) { prof_site_ = site; }

 private:
  std::atomic<bool> flag_{false};
  obs::ProfSiteId prof_site_ = obs::kInvalidProfSite;
#if BPW_PROF
  uint64_t prof_acquired_nanos_ = 0;  // guarded by flag_
#endif
};

/// RAII guard for SpinLock. std::lock_guard works functionally but is
/// invisible to the thread-safety analysis (std::lock_guard carries no
/// capability annotations), so annotated code uses this guard instead.
class BPW_SCOPED_CAPABILITY SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& lock) BPW_ACQUIRE(lock) : lock_(lock) {
    lock_.lock();
  }
  ~SpinLockGuard() BPW_RELEASE() { lock_.unlock(); }

  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace bpw
