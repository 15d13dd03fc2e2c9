#include "sync/contention_lock.h"

#include "obs/trace_recorder.h"
#include "testing/schedule_point.h"
#include "util/clock.h"

namespace bpw {

namespace {

/// One per-acquisition profiling decision, latched at entry so the
/// enter/exit pairs stay balanced even if the global flag toggles mid-wait.
/// Compiles to `false` (and dead-codes every call site) under BPW_PROF=0.
inline bool ProfThisAcquisition(obs::ProfSiteId site) {
#if BPW_PROF
  return site != obs::kInvalidProfSite && obs::ProfilerEnabled();
#else
  (void)site;
  return false;
#endif
}

}  // namespace

void ContentionLock::Lock() {
  BPW_SCHEDULE_POINT_OBJ("contention_lock.lock", this);
  // Under the cooperative model checker this parks the caller until the
  // scheduler's lock model says the acquisition cannot block, so the real
  // mu_.lock() below never sleeps in the OS.
  BPW_SCHED_LOCK_WILL_ACQUIRE(this, "contention_lock.lock");
  const bool prof = ProfThisAcquisition(prof_site_);
  // Tracing and profiling need the acquisition timestamp even in kCounts
  // mode; 0 marks "not timed" so Unlock never emits a span with a stale
  // start. The profiler shares these exact clock reads with the kTiming
  // counters — that is what keeps its per-site totals consistent with
  // LockStats to well under the 5% reproduction budget.
  const bool timed = instr_ == LockInstrumentation::kTiming ||
                     obs::TraceEnabled() || prof;
  if (mu_.try_lock()) {
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    lock_acquired_nanos_ = timed ? NowNanos() : 0;
    if (prof) obs::ProfRecordAcquire(prof_site_, false, 0);
    BPW_SCHED_LOCK_ACQUIRED(this, "contention_lock.lock");
    return;
  }
  // Immediate acquisition failed: this is the paper's contention event.
  contentions_.fetch_add(1, std::memory_order_relaxed);
  if (timed) {
    if (prof) obs::ProfWaiterEnter(prof_site_);
    const uint64_t wait_start = NowNanos();
    mu_.lock();
    const uint64_t acquired = NowNanos();
    if (instr_ == LockInstrumentation::kTiming) {
      wait_nanos_.fetch_add(acquired - wait_start, std::memory_order_relaxed);
    }
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::TraceEventKind::kLockWait, wait_start,
                     acquired - wait_start);
    }
    if (prof) {
      obs::ProfWaiterExit(prof_site_);
      obs::ProfRecordAcquire(prof_site_, true, acquired - wait_start);
    }
    lock_acquired_nanos_ = acquired;
  } else {
    mu_.lock();
    lock_acquired_nanos_ = 0;
  }
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  BPW_SCHED_LOCK_ACQUIRED(this, "contention_lock.lock");
}

bool ContentionLock::TryLock() {
  BPW_SCHEDULE_POINT_OBJ("contention_lock.try_lock", this);
  if (mu_.try_lock()) {
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    const bool prof = ProfThisAcquisition(prof_site_);
    const bool timed = instr_ == LockInstrumentation::kTiming ||
                       obs::TraceEnabled() || prof;
    lock_acquired_nanos_ = timed ? NowNanos() : 0;
    // A successful TryLock is by definition uncontended; a failed one is
    // not a contention (nobody blocks — the whole point of the paper's
    // protocol), so the profiler only sees the success.
    if (prof) obs::ProfRecordAcquire(prof_site_, false, 0);
    BPW_SCHED_LOCK_ACQUIRED(this, "contention_lock.try_lock");
    return true;
  }
  trylock_failures_.fetch_add(1, std::memory_order_relaxed);
  BPW_SCHED_LOCK_TRY_FAILED(this, "contention_lock.try_lock");
  return false;
}

void ContentionLock::Unlock() {
  BPW_SCHEDULE_POINT_OBJ("contention_lock.unlock", this);
  if (lock_acquired_nanos_ != 0) {
    const uint64_t start = lock_acquired_nanos_;
    const uint64_t now = NowNanos();
    if (instr_ == LockInstrumentation::kTiming) {
      hold_nanos_.fetch_add(now - start, std::memory_order_relaxed);
    }
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::TraceEventKind::kLockHold, start, now - start);
    }
    if (ProfThisAcquisition(prof_site_)) {
      obs::ProfRecordHold(prof_site_, now - start);
    }
    lock_acquired_nanos_ = 0;
  }
  mu_.unlock();
  // Reported after the real unlock so a cooperative switch here hands the
  // lock to a parked waiter instead of deadlocking on a still-held mutex.
  BPW_SCHED_LOCK_RELEASED(this, "contention_lock.unlock");
}

LockStats ContentionLock::stats() const {
  LockStats s;
  s.acquisitions = acquisitions_.load(std::memory_order_relaxed);
  s.contentions = contentions_.load(std::memory_order_relaxed);
  s.trylock_failures = trylock_failures_.load(std::memory_order_relaxed);
  s.hold_nanos = hold_nanos_.load(std::memory_order_relaxed);
  s.wait_nanos = wait_nanos_.load(std::memory_order_relaxed);
  return s;
}

void ContentionLock::ResetStats() {
  // Atomic stores, not a memset: concurrent Lock()/Unlock() traffic keeps
  // incrementing these words while we zero them, and a plain write would be
  // a data race (and could be torn). With relaxed stores every counter
  // lands at 0 and later increments accumulate on top.
  acquisitions_.store(0, std::memory_order_relaxed);
  contentions_.store(0, std::memory_order_relaxed);
  trylock_failures_.store(0, std::memory_order_relaxed);
  hold_nanos_.store(0, std::memory_order_relaxed);
  wait_nanos_.store(0, std::memory_order_relaxed);
}

}  // namespace bpw
