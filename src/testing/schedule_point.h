// ScheduleController / BPW_SCHEDULE_POINT: the serialization-point interface
// shared by seeded schedule perturbation (stress testing) and systematic
// exploration (the src/mc model checker).
//
// The paper's protocol (TryLock batching + commit-time re-validation, §IV-B)
// is only correct if it survives adversarial interleavings — the exact
// schedules a TSan-ed loop on a lightly loaded machine rarely produces. A
// BPW_SCHEDULE_POINT(name) is placed at every racy window in the library
// (lock acquisition, the eviction select→claim gap, pin/publish paths).
// Normally it costs one relaxed atomic load and a predicted branch; when a
// ScheduleController is installed, each point calls into the controller's
// virtual hook set. Two controller families implement the hooks:
//
//  - The base ScheduleController (this file): each point consults a
//    per-thread PRNG derived from (controller seed, thread index) and
//    deterministically decides to do nothing, yield, spin, or briefly sleep
//    — widening race windows in stress runs (tests/stress/).
//  - mc::CooperativeScheduler (src/mc/): each point is a *serialization
//    point* where the one-thread-at-a-time scheduler may deterministically
//    context-switch, which is what lets the model checker enumerate
//    interleavings by DFS.
//
// Both modes share one hook path: the decision of "what happens at this
// point" is a virtual call on the installed controller, so instrumented code
// (locks, the buffer pool, coordinators) never knows which mode is driving.
//
// Beyond plain points, the interface carries the events systematic
// exploration needs:
//   - lock transitions  (LockWillAcquire / LockAcquired / LockTryFailed /
//     LockReleased), reported by the src/sync lock wrappers, keep the
//     controller's lock model in sync and feed the happens-before race
//     certifier's vector clocks;
//   - cooperative yields (Yield) replace raw std::this_thread::yield() in
//     retry loops so the model checker can apply the CHESS fairness rule
//     (a yielding thread is deprioritized instead of busy-spinning forever);
//   - guarded-state accesses (Access) let the vector-clock race certifier
//     check that GUARDED_BY fields really are ordered;
//   - a condition-variable bridge (PrepareWait / CommitWait / NotifyAll)
//     lets the buffer pool's single-flight miss path park cooperatively
//     instead of blocking in the OS, which would hang a one-thread-at-a-time
//     scheduler.
//
// Replay model (seeded mode): given the same seed, every thread makes the
// same perturbation decision sequence, so a stress failure found at seed N
// is re-run with --seed=N. The OS scheduler still has the final word, so
// replay is best-effort rather than cycle-exact — in practice the
// perturbations dominate and seeded failures reproduce reliably. (The model
// checker's replay, by contrast, is exact: see src/mc/replay.h.)
//
// Builds that must not carry the check can compile the macros away entirely
// with -DBPW_SCHEDULE_POINTS=0 (see the CMake option of the same name).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "util/random.h"

#include "util/thread_annotations.h"

namespace bpw {
namespace testing {

/// Tuning knobs for schedule perturbation. Probabilities are evaluated
/// independently, in order (sleep, then yield, then spin); the defaults are
/// aggressive on purpose — this runs in stress tests, not production.
struct ScheduleOptions {
  uint64_t seed = 1;
  /// Probability a point parks the thread for a random [1, max_sleep_micros]
  /// microsecond sleep (forces wide reorderings, lets waiters overtake).
  double sleep_probability = 0.002;
  uint64_t max_sleep_micros = 100;
  /// Probability a point calls std::this_thread::yield().
  double yield_probability = 0.05;
  /// Probability a point busy-spins for a random [1, max_spin_iterations]
  /// dependent-arithmetic loop (small, cache-local delays).
  double spin_probability = 0.15;
  uint32_t max_spin_iterations = 256;
};

/// Seeded interleaving perturbator and the virtual decision-source interface
/// for systematic exploration. Install() makes it the process-global
/// controller consulted by every BPW_SCHEDULE_POINT; Uninstall() (or
/// destruction) restores the zero-cost path. Only one controller may be
/// installed at a time.
class ScheduleController {
 public:
  explicit ScheduleController(ScheduleOptions options = ScheduleOptions());
  virtual ~ScheduleController();

  ScheduleController(const ScheduleController&) = delete;
  ScheduleController& operator=(const ScheduleController&) = delete;

  /// Registers this controller as the global one. Must not already have a
  /// controller installed.
  void Install();
  void Uninstall();

  /// The installed controller, or nullptr. Inline relaxed load: this is the
  /// entire cost of a schedule point in a run without a controller.
  static ScheduleController* Current() {
    return g_current.load(std::memory_order_relaxed);
  }

  /// Pins the calling thread's perturbation stream to `index`, making the
  /// per-thread decision sequence independent of which thread happens to hit
  /// a schedule point first. Stress harnesses call this with the worker's
  /// creation index; unbound threads get a first-come index.
  static void BindCurrentThread(uint64_t index);

  /// The index the calling thread was bound to, or kUnboundThread if
  /// BindCurrentThread was never called on it.
  static uint64_t CurrentThreadIndex();
  static constexpr uint64_t kUnboundThread = ~0ULL;

  // --- The decision-source interface -------------------------------------
  // Every hook below is called from instrumented code while this controller
  // is installed. The base implementations are the seeded-random mode; the
  // model checker's cooperative scheduler overrides all of them.

  /// Called by BPW_SCHEDULE_POINT / _OBJ. `obj` identifies the shared
  /// object the surrounding code is about to touch (a lock address, a
  /// page-bucket), or nullptr when the point is not attributable to one
  /// object; the DPOR dependence relation is keyed on it. The seeded mode
  /// ignores `obj`, draws this thread's next perturbation decision and
  /// executes it. Lock-free (thread-local state only), so it is safe inside
  /// any lock implementation.
  virtual void Perturb(const char* point, const void* obj = nullptr);

  /// A blocking acquisition of `lock` is about to be attempted. The
  /// cooperative scheduler parks the caller until its lock model says the
  /// acquisition will succeed without blocking in the OS. No-op in seeded
  /// mode.
  virtual void LockWillAcquire(const void* lock, const char* point);

  /// `lock` was acquired (blocking path or successful TryLock). Feeds the
  /// lock model and joins the lock's release clock into the caller's vector
  /// clock. No-op in seeded mode.
  virtual void LockAcquired(const void* lock, const char* point);

  /// A TryLock on `lock` returned false. No-op in seeded mode.
  virtual void LockTryFailed(const void* lock, const char* point);

  /// `lock` was released (called AFTER the underlying unlock, so a
  /// cooperative switch here hands the lock to a waiter). No-op in seeded
  /// mode.
  virtual void LockReleased(const void* lock, const char* point);

  /// A retry loop is giving other threads a chance to run. Seeded mode
  /// forwards to std::this_thread::yield(); the cooperative scheduler marks
  /// the caller passive (CHESS fairness) and switches.
  virtual void Yield(const char* point);

  /// A guarded-state access for the vector-clock race certifier: the caller
  /// is reading (is_write=false) or writing (is_write=true) the state
  /// identified by `obj`. No-op in seeded mode.
  virtual void Access(const void* obj, const char* point, bool is_write);

  // --- Condition-variable bridge ------------------------------------------
  // A cooperative scheduler cannot let a worker block in the OS on a real
  // condition variable (the scheduler would deadlock with every thread
  // parked). The bridge protocol, used by BufferPool's single-flight miss
  // path:
  //
  //     while (predicate_still_false) {            // caller holds the mutex
  //       if (ctl && ctl->PrepareWait(&cv)) {      // registered: cooperative
  //         mutex.unlock();
  //         const bool ok = ctl->CommitWait(&cv);  // parks until NotifyAll
  //         mutex.lock();
  //         if (!ok) break;                        // run aborted: unwind
  //         continue;                              // re-check the predicate
  //       }
  //       cv.wait(mutex);                          // no controller: real wait
  //     }
  //
  // PrepareWait is called WHILE HOLDING the mutex, so a notifier (which also
  // holds the mutex to change the predicate) cannot slip between the
  // predicate check and the registration — the cooperative equivalent of
  // the atomicity condition variables give a real wait.

  /// Registers the calling thread as a waiter on `cv`. Returns true if the
  /// controller took ownership of the wait (caller must then follow the
  /// bridge protocol above); false to fall back to a real wait. Seeded mode
  /// returns false.
  virtual bool PrepareWait(const void* cv);

  /// Parks until a NotifyAll(cv) wakes this thread. Returns true on a
  /// normal wakeup, false if the run was aborted and the caller must unwind
  /// without waiting for the predicate. Only valid after PrepareWait
  /// returned true.
  virtual bool CommitWait(const void* cv);

  /// Wakes every cooperative waiter registered on `cv`. Called after the
  /// real notify_all (which covers non-cooperative waiters). No-op in
  /// seeded mode.
  virtual void NotifyAll(const void* cv);

  const ScheduleOptions& options() const { return options_; }

  /// Total schedule points observed / points that actually perturbed.
  uint64_t points_observed() const {
    return points_observed_.load(std::memory_order_relaxed);
  }
  uint64_t perturbations() const {
    return perturbations_.load(std::memory_order_relaxed);
  }
  /// Per-kind decision counters; (sleeps, yields, spins). Deterministic for
  /// a fixed seed and fixed per-thread point sequences — the determinism
  /// test compares these across two identical runs.
  uint64_t sleeps() const { return sleeps_.load(std::memory_order_relaxed); }
  uint64_t yields() const { return yields_.load(std::memory_order_relaxed); }
  uint64_t spins() const { return spins_.load(std::memory_order_relaxed); }

 private:
  static std::atomic<ScheduleController*> g_current BPW_RELAXED_OK("test-only controller pointer; installed before workers start");

  ScheduleOptions options_;
  bool installed_ = false;
  // Bumped on every Install so thread-local PRNGs from a previous
  // controller's epoch reseed themselves on first use.
  uint64_t epoch_ = 0;

  std::atomic<uint64_t> points_observed_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> perturbations_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> sleeps_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> yields_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> spins_{0} BPW_RELAXED_OK("stats counter");
};

/// RAII install/uninstall.
class ScopedScheduleController {
 public:
  explicit ScopedScheduleController(ScheduleOptions options)
      : controller_(options) {
    controller_.Install();
  }
  ~ScopedScheduleController() { controller_.Uninstall(); }

  ScheduleController& controller() { return controller_; }

 private:
  ScheduleController controller_;
};

/// Cooperative-aware yield for retry loops (BPW_SCHEDULE_YIELD): routes
/// through the installed controller so the model checker sees the yield
/// (fairness) instead of an invisible OS yield.
inline void ScheduleYield(const char* point) {
  ScheduleController* controller = ScheduleController::Current();
  if (controller != nullptr) {
    controller->Yield(point);
  } else {
    std::this_thread::yield();
  }
}

}  // namespace testing
}  // namespace bpw

// Schedule points default to compiled-in (they are free without a
// controller); -DBPW_SCHEDULE_POINTS=0 removes them entirely.
#ifndef BPW_SCHEDULE_POINTS
#define BPW_SCHEDULE_POINTS 1
#endif

#if BPW_SCHEDULE_POINTS

#define BPW_SCHEDULE_POINT(name)                                      \
  do {                                                                \
    ::bpw::testing::ScheduleController* bpw_sched_controller_ =       \
        ::bpw::testing::ScheduleController::Current();                \
    if (bpw_sched_controller_ != nullptr) {                           \
      bpw_sched_controller_->Perturb(name);                           \
    }                                                                 \
  } while (0)

/// A schedule point attributed to one shared object (lock address,
/// page-bucket): the model checker's DPOR pruning treats two points with
/// different non-null objects as independent.
#define BPW_SCHEDULE_POINT_OBJ(name, obj)                             \
  do {                                                                \
    ::bpw::testing::ScheduleController* bpw_sched_controller_ =       \
        ::bpw::testing::ScheduleController::Current();                \
    if (bpw_sched_controller_ != nullptr) {                           \
      bpw_sched_controller_->Perturb(name, obj);                      \
    }                                                                 \
  } while (0)

/// Controller-aware yield for retry loops: std::this_thread::yield()
/// without a controller, a fairness-visible cooperative yield with one.
#define BPW_SCHEDULE_YIELD(name) ::bpw::testing::ScheduleYield(name)

// Lock-transition reports from the src/sync wrappers. Each costs one
// relaxed load plus a predicted branch when no controller is installed.
#define BPW_SCHED_LOCK_EVENT_(method, lock, name)                     \
  do {                                                                \
    ::bpw::testing::ScheduleController* bpw_sched_controller_ =       \
        ::bpw::testing::ScheduleController::Current();                \
    if (bpw_sched_controller_ != nullptr) {                           \
      bpw_sched_controller_->method(lock, name);                      \
    }                                                                 \
  } while (0)

#define BPW_SCHED_LOCK_WILL_ACQUIRE(lock, name) \
  BPW_SCHED_LOCK_EVENT_(LockWillAcquire, lock, name)
#define BPW_SCHED_LOCK_ACQUIRED(lock, name) \
  BPW_SCHED_LOCK_EVENT_(LockAcquired, lock, name)
#define BPW_SCHED_LOCK_TRY_FAILED(lock, name) \
  BPW_SCHED_LOCK_EVENT_(LockTryFailed, lock, name)
#define BPW_SCHED_LOCK_RELEASED(lock, name) \
  BPW_SCHED_LOCK_EVENT_(LockReleased, lock, name)

// Guarded-state access reports for the vector-clock race certifier.
#define BPW_MC_ACCESS_READ(name, obj)                                 \
  do {                                                                \
    ::bpw::testing::ScheduleController* bpw_sched_controller_ =       \
        ::bpw::testing::ScheduleController::Current();                \
    if (bpw_sched_controller_ != nullptr) {                           \
      bpw_sched_controller_->Access(obj, name, /*is_write=*/false);   \
    }                                                                 \
  } while (0)
#define BPW_MC_ACCESS_WRITE(name, obj)                                \
  do {                                                                \
    ::bpw::testing::ScheduleController* bpw_sched_controller_ =       \
        ::bpw::testing::ScheduleController::Current();                \
    if (bpw_sched_controller_ != nullptr) {                           \
      bpw_sched_controller_->Access(obj, name, /*is_write=*/true);    \
    }                                                                 \
  } while (0)

#else  // !BPW_SCHEDULE_POINTS

#define BPW_SCHEDULE_POINT(name) ((void)0)
#define BPW_SCHEDULE_POINT_OBJ(name, obj) ((void)0)
// The yield still has a runtime job (retry-loop politeness) even with the
// controller machinery compiled out.
#define BPW_SCHEDULE_YIELD(name) ::std::this_thread::yield()
#define BPW_SCHED_LOCK_WILL_ACQUIRE(lock, name) ((void)0)
#define BPW_SCHED_LOCK_ACQUIRED(lock, name) ((void)0)
#define BPW_SCHED_LOCK_TRY_FAILED(lock, name) ((void)0)
#define BPW_SCHED_LOCK_RELEASED(lock, name) ((void)0)
#define BPW_MC_ACCESS_READ(name, obj) ((void)0)
#define BPW_MC_ACCESS_WRITE(name, obj) ((void)0)

#endif  // BPW_SCHEDULE_POINTS
