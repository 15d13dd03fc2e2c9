// SharedQueueCoordinator: the batching design the paper REJECTED.
//
// §III-A: "an alternative is to use one common FIFO queue shared by
// multiple threads. However, we choose to use a private FIFO queue for
// each thread" because (1) a private queue keeps the precise per-thread
// access order, and (2) "recording access information into private FIFO
// queues incurs the least synchronization and coherence cost, which is
// required for the shared FIFO queue when multiple threads fill or clear
// the queue."
//
// This coordinator implements the rejected design faithfully — one global
// FIFO protected by its own small lock, batched commits into the policy
// lock — so the ablation bench can measure exactly the costs the paper
// predicted: every page hit takes the queue lock (a new shared hot spot),
// and per-thread access order is lost (entries commit in global arrival
// order).
#pragma once

#include "core/access_queue.h"
#include "core/coordinator.h"
#include "sync/spinlock.h"
#include "util/thread_annotations.h"

namespace bpw {

class SharedQueueCoordinator : public Coordinator {
 public:
  struct Options {
    size_t queue_size = 64;
    size_t batch_threshold = 32;
    LockInstrumentation instrumentation = LockInstrumentation::kCounts;
    /// MUTATION KNOB — tests only. When the batch threshold fires, commit
    /// WITHOUT taking the policy lock (no TryLock, no fallback), violating
    /// the GUARDED_BY(lock_) contract on batch_ and the policy's
    /// serialization contract. Exists so the model checker's vector-clock
    /// race certifier can prove it catches an unordered
    /// AssertExclusiveAccess pair as a race (the dynamic cross-validation
    /// of PR 4's static annotations).
    bool test_commit_without_lock = false;
  };

  SharedQueueCoordinator(std::unique_ptr<ReplacementPolicy> policy,
                         Options options);
  explicit SharedQueueCoordinator(std::unique_ptr<ReplacementPolicy> policy)
      : SharedQueueCoordinator(std::move(policy), Options()) {}

  std::unique_ptr<ThreadSlot> RegisterThread() override;
  void OnHit(ThreadSlot* slot, PageId page, FrameId frame) override
      BPW_HOLD_EFFECT_OK(alloc, "shared-queue push_back; capacity is "
                                "reserved to the batch bound up front");
  StatusOr<Victim> ChooseVictim(ThreadSlot* slot, const EvictableFn& evictable,
                                PageId incoming) override;
  void CompleteMiss(ThreadSlot* slot, PageId page, FrameId frame) override;
  bool OnErase(ThreadSlot* slot, PageId page, FrameId frame) override;
  void FlushSlot(ThreadSlot* slot) override;
  LockStats lock_stats() const override { return lock_.stats(); }
  void ResetLockStats() override { lock_.ResetStats(); }
  const ReplacementPolicy& policy() const override { return *policy_; }
  ReplacementPolicy* mutable_policy() override { return policy_.get(); }
  std::string name() const override { return "shared-queue"; }
  bool StateFingerprintSupported() const override {
    return policy_->StateFingerprintSupported();
  }
  uint64_t StateFingerprint() const override BPW_NO_THREAD_SAFETY_ANALYSIS;

  /// Contended acquisitions of the *queue* spinlock per million... exposed
  /// raw: total queue-lock acquisitions (== one per page hit: the design's
  /// flaw made visible).
  uint64_t queue_lock_acquisitions() const {
    return queue_acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  class Slot : public ThreadSlot {};

  /// Drains the shared queue into the policy. Caller holds lock_ (the
  /// policy lock); takes queue_lock_ internally to swap the buffer out.
  void CommitLocked() BPW_REQUIRES(lock_);

  /// MUTATION: runs the commit body with NO policy lock held. Deliberately
  /// exempt from the thread-safety analysis — the whole point is to execute
  /// the statically-forbidden interleaving so the dynamic race certifier
  /// can catch it. Only reachable via Options::test_commit_without_lock.
  void CommitRacy() BPW_NO_THREAD_SAFETY_ANALYSIS;

  std::unique_ptr<ReplacementPolicy> policy_;
  Options options_;
  ContentionLock lock_;  // the policy lock

  // The shared queue: the paper's predicted hot spot.
  SpinLock queue_lock_;
  std::vector<AccessQueue::Entry> queue_ BPW_GUARDED_BY(queue_lock_);
  // Commit-time scratch: CommitLocked swaps the shared queue into this
  // buffer and replays from it, so the buffers ping-pong and the critical
  // section never allocates (bpw_check: hold-alloc).
  std::vector<AccessQueue::Entry> batch_ BPW_GUARDED_BY(lock_);
  std::atomic<uint64_t> queue_acquisitions_{0} BPW_RELAXED_OK("stats counter");
  // Declared last so it unregisters before anything it reads is destroyed.
  obs::ScopedMetricSource metrics_source_;
};

}  // namespace bpw
