// CooperativeScheduler: the CHESS-style serializing scheduler behind the
// model checker.
//
// It subclasses testing::ScheduleController, so every BPW_SCHEDULE_POINT /
// lock hook / cooperative yield / condvar-bridge call in the library routes
// here while it is installed — the same hook path the seeded-random stress
// controller uses, with a different decision source behind it.
//
// Execution model:
//   - A scenario spawns N worker threads; each calls AttachWorker(id) first
//     and DetachWorker(id) last. Exactly one attached worker runs at a time;
//     everyone else is parked on the internal monitor.
//   - Each hook that represents a *serialization point* (Perturb, Yield,
//     LockReleased) parks the calling worker and runs the scheduling
//     decision: build the candidate set (enabled, non-sleeping-per-caller,
//     CHESS-fair), ask the installed Chooser which thread runs next, wake
//     it. Forced switches (current thread blocked on a modelled lock,
//     waiting on the condvar bridge, or finished) work the same way but
//     offer no "continue current" candidate.
//   - Locks are modelled: LockWillAcquire parks the caller until the model
//     says the lock is free, so the *real* mutex acquisition that follows
//     never blocks in the OS. LockAcquired/LockReleased maintain the model
//     and drive the vector clocks; TryLock failures are recorded for the
//     certifier but never block.
//   - The condition-variable bridge (PrepareWait/CommitWait/NotifyAll)
//     parks waiters cooperatively; NotifyAll re-enables them.
//
// Fairness (CHESS's yield rule): a worker that calls Yield is marked
// passive; while any non-passive enabled worker exists, passive workers are
// not offered as candidates, and being scheduled clears the flag. This is
// what keeps retry loops ("yield until the pin holder releases") from
// turning the DFS into an infinite chain of do-nothing switches.
//
// Abort protocol: Abort() (from the Chooser pruning a branch, or from
// deadlock/livelock detection) releases every parked worker and turns every
// subsequent hook into a no-op; the workers then run to completion as plain
// concurrent threads on the real locks. CommitWait returns false to aborted
// cv waiters so single-flight loops unwind instead of waiting for a wakeup
// that will never come.
//
// Threads that never attached (the scenario's main thread, any library
// background thread) are invisible: every hook returns immediately for
// them.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mc/vector_clock.h"
#include "testing/schedule_point.h"

namespace bpw {
namespace mc {

/// One schedulable worker at a decision point.
struct Candidate {
  int thread = -1;
  /// The point the worker is parked at (the action it performs next).
  const char* point = nullptr;
  /// The shared object that action touches (nullptr = unattributed; DPOR
  /// treats it as dependent with everything). Only meaningful within the
  /// execution that produced it.
  const void* obj = nullptr;
  /// True if scheduling this candidate preempts the current worker (the
  /// parking worker stays enabled and this is a different, non-forced,
  /// non-post-yield switch). The explorer charges these against the bound.
  bool preemptive = false;
};

/// Everything a decision source sees at one decision point.
struct DecisionContext {
  std::vector<Candidate> candidates;  // sorted by thread id, never empty
  /// Worker that was running (and is a candidate) — or -1 on a forced
  /// switch.
  int current = -1;
  uint64_t decision_index = 0;
  /// Combined structural fingerprint: scenario state (pool/coordinator/
  /// policy, via the installed fingerprint provider) mixed with per-worker
  /// control state (the points passed so far in the current op, op
  /// progress, passivity). Zero when no provider is installed.
  uint64_t state_fingerprint = 0;
  bool fingerprint_supported = false;
  /// Stable signature of the candidate set (threads + point names), for
  /// detecting divergent replays.
  uint64_t candidate_signature = 0;
};

/// Violations the scheduler itself detects (scenario-level invariant
/// violations are diagnosed by the scenario after the run).
enum class SchedulerVerdict {
  kNone,
  kDeadlock,  // live workers, no enabled candidate
  kLivelock,  // decision budget exhausted
};

class CooperativeScheduler : public testing::ScheduleController {
 public:
  /// Picks the next worker from ctx.candidates; returns its thread id, or
  /// kAbortExecution to abandon the execution (branch pruned). Runs on the
  /// parking worker's thread with the scheduler monitor held — it must not
  /// call back into the scheduler, but may read quiesced scenario state
  /// (every other worker is parked).
  using Chooser = std::function<int(const DecisionContext&)>;
  static constexpr int kAbortExecution = -1;

  struct Config {
    int num_threads = 2;
    /// Decision-depth cap: exceeding it is reported as a livelock.
    uint64_t max_decisions = 20000;
  };

  CooperativeScheduler();
  ~CooperativeScheduler() override;

  /// Resets all per-execution state. Call before each scenario run, after
  /// Install().
  void BeginRun(const Config& config, Chooser chooser);

  /// Optional provider of the scenario's structural state fingerprint,
  /// called with all workers parked. Cleared by BeginRun.
  void SetFingerprintProvider(std::function<uint64_t()> provider,
                              bool supported);

  // --- Worker-side API ----------------------------------------------------

  /// First call in a worker body. Parks until every worker has attached and
  /// this worker is scheduled first.
  void AttachWorker(int id);
  /// Last call in a worker body: hands control to the next worker.
  void DetachWorker(int id);
  /// Reports scenario progress (the index of the op the worker is about to
  /// execute) for state fingerprinting.
  void MarkProgress(int op_index);

  // --- ScheduleController hook overrides ----------------------------------
  void Perturb(const char* point, const void* obj) override;
  void LockWillAcquire(const void* lock, const char* point) override;
  void LockAcquired(const void* lock, const char* point) override;
  void LockTryFailed(const void* lock, const char* point) override;
  void LockReleased(const void* lock, const char* point) override;
  void Yield(const char* point) override;
  void Access(const void* obj, const char* point, bool is_write) override;
  bool PrepareWait(const void* cv) override;
  bool CommitWait(const void* cv) override;
  void NotifyAll(const void* cv) override;

  // --- Results ------------------------------------------------------------

  /// True once the execution was abandoned (prune, violation, or error).
  bool aborted() const;
  SchedulerVerdict verdict() const;
  std::string verdict_detail() const;
  uint64_t decisions_made() const;
  /// The chosen thread id at every decision point, in order — the exact
  /// recipe a replay needs to reproduce this execution.
  const std::vector<int>& decision_trace() const { return decision_trace_; }
  /// Per-decision candidate signatures (parallel to decision_trace), used
  /// by replays to detect divergence.
  const std::vector<uint64_t>& decision_signatures() const {
    return decision_signatures_;
  }
  const RaceCertifier& certifier() const { return certifier_; }

 private:
  enum class Phase {
    kNotAttached,
    kRunnable,     // parked at a point, can be scheduled
    kRunning,      // the one live worker
    kBlockedLock,  // parked until its lock is model-free
    kBlockedCv,    // parked until NotifyAll
    kFinished,
  };

  struct Worker {
    Phase phase = Phase::kNotAttached;
    bool passive = false;  // set by Yield, cleared on schedule (CHESS rule)
    const char* point = nullptr;
    // Hash of every point passed since the op began (MarkProgress). A point
    // name alone does not place a worker in the code: "contention_lock.
    // unlock" ends a victim selection and a miss registration alike, with
    // different locals (the victim) live, and merging such states in the
    // visited-state dedup prunes schedules neither state's exploration
    // covered.
    uint64_t path = 0;
    const void* obj = nullptr;
    const void* waiting_lock = nullptr;
    const void* waiting_cv = nullptr;
    bool cv_signalled = false;
    int op_index = -1;
    VectorClock clock;
  };

  // All private helpers assume mu_ is held.
  bool EnabledLocked(int id) const;
  void BuildCandidatesLocked(int parking, bool parking_enabled,
                             DecisionContext& ctx) const;
  uint64_t ThreadStateHashLocked() const;
  /// Runs one scheduling decision on behalf of `parking` (which has already
  /// updated its own phase). Sets running_ or aborts.
  void ScheduleNextLocked(int parking, bool parking_enabled);
  /// Parks the calling worker until it is scheduled (or the run aborts).
  void WaitUntilScheduledLocked(std::unique_lock<std::mutex>& lk, int id);
  /// Records that `w` reached `point` (its parked point and op path).
  static void Reach(Worker& w, const char* point);
  /// Full "decision point" sequence for a still-enabled worker: mark
  /// runnable, schedule, wait.
  void ParkAtPoint(int id, const char* point, const void* obj);
  void AbortLocked(SchedulerVerdict verdict, std::string detail);

  // Raw std::mutex/std::condition_variable on purpose: the scheduler's own
  // monitor must not re-enter the instrumented bpw wrappers (every wrapper
  // hook would recurse straight back into the scheduler).
  // bpw-lint-allow-file(raw-mutex)
  mutable std::mutex mu_;
  std::condition_variable cv_;

  Config config_;
  Chooser chooser_;
  std::function<uint64_t()> fingerprint_provider_;
  bool fingerprint_supported_ = false;

  std::vector<Worker> workers_;
  int attached_ = 0;
  int running_ = -1;
  bool started_ = false;
  bool aborted_ = false;
  SchedulerVerdict verdict_ = SchedulerVerdict::kNone;
  std::string verdict_detail_;

  uint64_t decisions_ = 0;
  std::vector<int> decision_trace_;
  std::vector<uint64_t> decision_signatures_;

  // Lock model: which worker holds each modelled lock.
  std::unordered_map<const void*, int> lock_holder_;
  // Release clocks for locks and condition variables (happens-before
  // edges carried lock-release → lock-acquire and notify → wake).
  std::unordered_map<const void*, VectorClock> lock_clock_;
  std::unordered_map<const void*, VectorClock> cv_clock_;

  RaceCertifier certifier_{0};
};

/// Worker-id binding for the calling thread (thread-local). Scenario worker
/// bodies run entirely between AttachWorker and DetachWorker, which manage
/// this; exposed for tests.
int CurrentWorkerId();

}  // namespace mc
}  // namespace bpw
