// BpWrapperCoordinator: the BP-Wrapper commit protocol (Fig. 4).
//
// The protocol wraps an *unmodified* replacement policy:
//
//  - Each thread records hits into its private AccessQueue.
//  - Once `batch_threshold` accesses accumulate, the thread makes a
//    non-blocking TryLock() attempt; on success it commits the whole queue
//    under one lock-holding period. On failure it simply keeps recording —
//    no blocking, no contention event.
//  - Only when the queue is completely full does the thread fall back to a
//    blocking Lock().
//  - A miss always commits (the policy must run to pick a victim), first
//    draining the thread's queue so the policy sees accesses in order.
//  - With `prefetch` enabled, the thread touches the policy nodes for every
//    queued frame and the lock word immediately before acquiring the lock
//    (§III-B), moving cache warm-up misses outside the critical section.
//  - Commit-time re-validation (§IV-B): each entry's (page, frame) pair is
//    checked against the buffer pool's current frame tags; entries whose
//    page was evicted or replaced since recording are skipped.
//
// pgBat and pgBatPre run on this coordinator (kind "bp-wrapper").
//
// Every commit is split into two phases:
//
//   apply phase (locked)      — replay the thread's queue into the policy
//   post-commit (lock-free)   — counters and trace emission run AFTER
//                               lock_.Unlock()
//
// so the critical section contains nothing but policy updates (early lock
// release). The contention profiler names the apply phase "commit".
#pragma once

#include <unordered_set>

#include "core/access_queue.h"
#include "core/coordinator.h"
#include "obs/trace_recorder.h"
#include "sync/mutex.h"
#include "util/clock.h"
#include "util/thread_annotations.h"

namespace bpw {

class BpWrapperCoordinator : public Coordinator {
 public:
  struct Options {
    /// S in the paper: per-thread FIFO queue capacity.
    size_t queue_size = 64;
    /// T in the paper: accesses accumulated before the TryLock() attempt.
    size_t batch_threshold = 32;
    /// §III-B prefetching (pgBatPre enables it).
    bool prefetch = false;
    LockInstrumentation instrumentation = LockInstrumentation::kCounts;
    /// MUTATION KNOB — tests only. Skips the "commit queued accesses before
    /// selecting a victim" ordering rule (Fig. 4), making the policy decide
    /// on stale history. Breaks the single-thread equivalence property that
    /// tests/stress/mutation_test.cc asserts the net catches.
    bool test_skip_commit_before_victim = false;
  };

  BpWrapperCoordinator(std::unique_ptr<ReplacementPolicy> policy,
                       Options options);
  explicit BpWrapperCoordinator(std::unique_ptr<ReplacementPolicy> policy)
      : BpWrapperCoordinator(std::move(policy), Options()) {}
  ~BpWrapperCoordinator() override;

  std::unique_ptr<ThreadSlot> RegisterThread() override;
  void OnHit(ThreadSlot* slot, PageId page, FrameId frame) override;
  StatusOr<Victim> ChooseVictim(ThreadSlot* slot, const EvictableFn& evictable,
                                PageId incoming) override
      BPW_HOLD_EFFECT_OK(alloc, "optional<StatusOr> emplace of the victim "
                                "result; Victim is inline, no heap");
  void CompleteMiss(ThreadSlot* slot, PageId page, FrameId frame) override;
  bool OnErase(ThreadSlot* slot, PageId page, FrameId frame) override;
  void FlushSlot(ThreadSlot* slot) override;
  LockStats lock_stats() const override { return lock_.stats(); }
  void ResetLockStats() override { lock_.ResetStats(); }
  const ReplacementPolicy& policy() const override { return *policy_; }
  ReplacementPolicy* mutable_policy() override { return policy_.get(); }
  std::string name() const override {
    return options_.prefetch ? "bp-wrapper+pre" : "bp-wrapper";
  }
  bool StateFingerprintSupported() const override {
    return policy_->StateFingerprintSupported();
  }
  uint64_t StateFingerprint() const override BPW_NO_THREAD_SAFETY_ANALYSIS;
  uint64_t SlotStateFingerprint(const ThreadSlot* slot) const override;

  const Options& options() const { return options_; }

  // --- Observable counters (all relaxed atomics, post-commit updated) -----

  uint64_t stale_commits() const {
    return stale_commits_.load(std::memory_order_relaxed);
  }
  /// Non-empty queue replays applied to the policy.
  uint64_t commit_batches() const {
    return commit_batches_.load(std::memory_order_relaxed);
  }
  uint64_t committed_entries() const {
    return committed_entries_.load(std::memory_order_relaxed);
  }
  /// Queue-completely-full blocking Lock() fallbacks (Fig. 4 line 13).
  uint64_t lock_fallbacks() const {
    return lock_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  class Slot : public ThreadSlot {
   public:
    Slot(BpWrapperCoordinator* owner, size_t queue_size)
        : owner_(owner), queue(queue_size) {}
    ~Slot() override;

    BpWrapperCoordinator* owner_;
    AccessQueue queue;
  };

  /// What one locked apply phase did; consumed by the lock-free
  /// post-commit phase after the early release. Construction stamps the
  /// start of the commit-trace span when tracing is on.
  struct DrainOutcome {
    uint64_t batches = 0;
    uint64_t entries = 0;  ///< applied (net of stale)
    uint64_t stale = 0;
    bool trace = obs::TraceEnabled();
    uint64_t trace_start = trace ? NowNanos() : 0;
  };

  /// §III-B prefetch of everything the apply phase will touch: the lock
  /// word and the policy nodes of the thread's queued frames.
  void PrefetchForCommit(const Slot* slot) const BPW_EXCLUDES(lock_);

  /// Replays the thread's queue into the policy with §IV-B tag
  /// re-validation and clears it.
  void DrainOwnLocked(Slot* slot, DrainOutcome& out) BPW_REQUIRES(lock_);

  /// The batched commit: locked apply phase, then EARLY RELEASE, then the
  /// lock-free post-commit phase. Annotated RELEASE: callers enter holding
  /// lock_ and leave without it.
  void CommitAndRelease(Slot* slot) BPW_RELEASE(lock_)
      BPW_HOLD_EFFECT_OK(clock, "commit-latency trace stamp; one vDSO read "
                                "per commit, only when tracing is on");

  /// Post-commit phase shared by every path: folds `out` into the
  /// counters. Must run WITHOUT lock_ held — bpw_check's
  /// post-commit-under-lock rule exists to keep it that way.
  void PostCommitBookkeeping(const DrainOutcome& out) BPW_EXCLUDES(lock_)
      BPW_HOLD_EFFECT_OK(clock,
                         "trace stamp; runs after lock_ is released");

  std::unique_ptr<ReplacementPolicy> policy_;
  Options options_;
  ContentionLock lock_;

  std::atomic<uint64_t> stale_commits_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> commit_batches_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> committed_entries_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> lock_fallbacks_{0} BPW_RELAXED_OK("stats counter");

  // Live-slot registry.
  Mutex slots_mu_;
  std::unordered_set<Slot*> slots_ BPW_GUARDED_BY(slots_mu_);

  // Declared last so it unregisters before anything it reads is destroyed.
  obs::ScopedMetricSource metrics_source_;
};

}  // namespace bpw
