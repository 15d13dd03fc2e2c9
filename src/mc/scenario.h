// Model-checking scenarios: small, fully deterministic buffer-pool
// workloads the explorer runs under the cooperative scheduler.
//
// A scenario owns the recipe for one execution: build a fresh storage +
// pool + coordinator + policy stack (so every execution starts from the
// identical initial state), pre-stamp every page, run N worker threads
// through fixed access traces, and diagnose the outcome. The *schedule* is
// the only free variable — it is supplied by the explorer (or a replay
// file) through the scheduler's Chooser.
//
// Diagnosis, in priority order:
//   1. scheduler verdicts (deadlock among the workers, livelock via the
//      decision budget);
//   2. worker-observed failures: FetchPage errors and stamp mismatches (a
//      handle whose bytes belong to a different page — the corruption the
//      victim-revalidation mutation re-introduces). ResourceExhausted is an
//      error only while some frame is unpinned: a pool whose every frame
//      is pinned is genuinely full;
//   3. post-run structural integrity (BufferPool::CheckIntegrity);
//   4. serial-equivalence: for single-threaded scenarios, the per-op
//      hit/miss pattern must match a reference run on a mutation-free
//      stack (catches ordering bugs like skipping the commit-before-victim
//      rule, which corrupt the policy's decisions without corrupting any
//      data structure);
//   5. certifier races: unordered GUARDED_BY-claimed access pairs.
#pragma once

#include <string>
#include <vector>

#include "mc/cooperative_scheduler.h"
#include "util/status.h"
#include "util/types.h"

namespace bpw {
namespace mc {

struct ScenarioConfig {
  std::string name = "eviction";
  /// "serialized", "shared-queue", or "bp-wrapper".
  std::string coordinator = "shared-queue";
  /// Any CreatePolicy name; only fingerprint-supporting policies (lru,
  /// fifo, clock, gclock) enable state dedup.
  std::string policy = "lru";
  int threads = 2;
  int pages = 4;
  int frames = 2;
  size_t queue_size = 4;
  size_t batch_threshold = 2;
  int ops_per_thread = 3;
  /// BufferPoolConfig::eviction_retries: victim selections a miss tries
  /// before it falls back to the back-pressure wait.
  int eviction_retries = 64;
  /// Explicit per-thread access trace; when empty, thread t's op j accesses
  /// page (t*2 + j) % pages.
  std::vector<PageId> trace;
  /// Compare per-op hit/miss against a mutation-free reference run
  /// (single-threaded scenarios only; ignored otherwise).
  bool check_serial_equivalence = false;

  // Mutation knobs (reintroduce known-bad behaviour so the checker can
  // prove it finds them):
  bool mutate_skip_victim_revalidation = false;   // BufferPoolConfig knob
  bool mutate_skip_commit_before_victim = false;  // BpWrapperCoordinator knob
  bool mutate_commit_without_lock = false;        // SharedQueueCoordinator knob

  uint64_t max_decisions = 10000;
};

enum class ViolationKind {
  kNone,
  kInvariant,
  kRace,
  kDeadlock,
  kLivelock,
  kError,  // harness-level failure (bad config, divergent replay, ...)
};

const char* ViolationKindName(ViolationKind kind);

struct Violation {
  ViolationKind kind = ViolationKind::kNone;
  std::string message;
};

/// Everything one execution produced.
struct ExecutionResult {
  /// Aborted mid-run by the explorer (branch pruned): no diagnosis, no
  /// trace semantics.
  bool pruned = false;
  bool violated = false;
  Violation violation;
  /// Chosen thread per decision, in order — replaying these choices
  /// reproduces the execution exactly.
  std::vector<int> decisions;
  /// Candidate-set signatures parallel to `decisions` (divergence checks).
  std::vector<uint64_t> signatures;
  uint64_t races_checked = 0;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config) : config_(std::move(config)) {}

  /// Named presets (the CLI's --scenario values):
  ///   "eviction" — 2 threads contending for 2 frames over 4 pages through
  ///                a SharedQueueCoordinator (the acceptance scenario);
  ///   "handoff"  — 2 threads through the "bp-wrapper" coordinator (TryLock
  ///                commit handoffs and the lock fallback path);
  ///   "race"     — 2 threads, all-hit trace through SharedQueueCoordinator
  ///                (every hit crosses the shared queue; the stage for the
  ///                commit-without-lock mutation);
  ///   "serial"   — 1 thread through the "bp-wrapper" coordinator with a
  ///                trace whose hit/miss pattern is sensitive to the
  ///                commit-before-victim rule; serial equivalence on.
  ///   "backpressure" — 3 fetchers missing over 2 frames with no eviction
  ///                retries: a miss that finds both frames pinned or in
  ///                flight takes the wait-for-unpin path. No
  ///                ResourceExhausted unless both frames are pinned, and
  ///                no lost wakeup (which the scheduler reports as a
  ///                deadlock).
  static StatusOr<ScenarioConfig> Preset(const std::string& name);
  static std::vector<std::string> PresetNames();

  const ScenarioConfig& config() const { return config_; }

  /// The page sequence worker `thread` accesses.
  std::vector<PageId> TraceFor(int thread) const;

  /// Builds a fresh stack and runs one complete execution under `sched`,
  /// with `chooser` deciding every scheduling choice. The scheduler must
  /// already be installed as the global ScheduleController.
  ExecutionResult RunOnce(CooperativeScheduler& sched,
                          CooperativeScheduler::Chooser chooser);

 private:
  ScenarioConfig config_;
};

}  // namespace mc
}  // namespace bpw
