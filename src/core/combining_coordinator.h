// CombiningCoordinator: the BP-Wrapper commit protocol (Fig. 4), optionally
// with flat combining and early lock release ("pgBat++").
//
// The base protocol wraps an *unmodified* replacement policy:
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
// With `max_slots` = 0 that is all there is: pgBat and pgBatPre (coordinator
// kind "bp-wrapper"). With publication slots, flat combining is layered on
// top. Plain BP-Wrapper still acquires the lock once per batch per thread
// under heavy load, because a thread whose TryLock fails keeps its batch to
// itself and retries later. Flat combining inverts this: a thread first
// *publishes* its full AccessQueue into a per-thread publication slot, then
//
//  - wins the ContentionLock and, in ONE lock-holding period, applies its
//    own batch plus every peer's ready slot (the combiner drains the
//    helpers' work), or
//  - loses the TryLock and spins briefly waiting for the current holder to
//    adopt its published batch (cooperative handoff), returning without
//    ever blocking.
//
// Under saturation one acquisition now retires up to `max_slots` batches
// instead of one, which is where the lock-acquisition counters shrink.
//
// Every commit, with or without slots, is split into two phases:
//
//   apply phase (locked)      — replay own batch, own queue remainder, and
//                               every claimed peer slot into the policy
//   post-commit (lock-free)   — counters, trace emission, and slot
//                               recycling run AFTER lock_.Unlock()
//
// so the critical section contains nothing but policy updates (early lock
// release). The contention profiler separates the phases ("self_commit" vs
// "combine_drain" under "combine") so the shrunken hold window is visible
// in the flamegraph.
//
// Publication-slot protocol (seqlock-style three-state flag):
//
//     kEmpty ──owner publishes──▶ kReady ──combiner claims (under lock_)──▶
//     kDraining ──combiner recycles (after unlock)──▶ kEmpty
//
// The slot buffer is a baton: the owner may write it only in kEmpty, a
// combiner may read it only after claiming kReady→kDraining, and the claim
// transition is only ever made while holding the ContentionLock, so there
// is exactly one writer or one reader at any time. kDraining exists so the
// recycle store can move OUT of the critical section without letting a
// second combiner re-drain a slot the first has applied but not yet
// recycled. The model checker certifies the protocol: each slot is
// reported to the scheduler as a pseudo-capability (acquire at claim,
// release at publish/recycle), giving the vector-clock race certifier the
// happens-before edges the raw atomics encode.
//
// Conservation invariant (checked quiesced by CheckQuiescedInvariants):
//
//     published_entries == drained_entries + sum(pending slot entries)
//
// Every seeded handoff bug — a slot drained twice, a ready flag cleared
// before the apply, a drained slot never recycled — breaks this equation,
// which is how the stress harness and the model checker catch the
// mutations below.
#pragma once

#include <unordered_set>
#include <vector>

#include "core/access_queue.h"
#include "core/coordinator.h"
#include "obs/trace_recorder.h"
#include "sync/mutex.h"
#include "util/cacheline.h"
#include "util/clock.h"
#include "util/thread_annotations.h"

namespace bpw {

class CombiningCoordinator : public Coordinator {
 public:
  struct Options {
    /// S in the paper: per-thread FIFO queue capacity.
    size_t queue_size = 64;
    /// T in the paper: accesses accumulated before publish + TryLock.
    size_t batch_threshold = 32;
    /// §III-B prefetching (pgBatPre and pgBat++ enable it).
    bool prefetch = false;
    /// Publication slots available. 0 means none: the plain BP-Wrapper
    /// protocol (pgBat, pgBatPre). Threads beyond this many registered at
    /// once degrade gracefully to plain BP-Wrapper behaviour (no publish,
    /// no handoff) — never an error.
    size_t max_slots = 64;
    LockInstrumentation instrumentation = LockInstrumentation::kCounts;
    /// MUTATION KNOB — tests only. Skips the "commit queued accesses before
    /// selecting a victim" ordering rule (Fig. 4), making the policy decide
    /// on stale history. Breaks the single-thread equivalence property that
    /// tests/stress/mutation_test.cc asserts the net catches.
    bool test_skip_commit_before_victim = false;
    /// MUTATION KNOB — tests only. The lost-handoff bug: a combiner
    /// applies a claimed peer slot TWICE, double-counting its accesses.
    /// Breaks conservation (drained > published).
    bool test_drain_twice = false;
    /// MUTATION KNOB — tests only. The dropped-batch bug: a combiner
    /// recycles a ready peer slot (flag cleared) WITHOUT applying it.
    /// Breaks conservation (published > drained).
    bool test_clear_ready_before_apply = false;
    /// MUTATION KNOB — tests only. The stuck-slot bug: the post-commit
    /// phase skips recycling, leaving applied slots in kDraining forever.
    /// Breaks conservation (applied entries still counted as pending).
    bool test_skip_release = false;
  };

  CombiningCoordinator(std::unique_ptr<ReplacementPolicy> policy,
                       Options options);
  explicit CombiningCoordinator(std::unique_ptr<ReplacementPolicy> policy)
      : CombiningCoordinator(std::move(policy), Options()) {}
  ~CombiningCoordinator() override;

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
    const std::string base =
        options_.max_slots == 0 ? "bp-wrapper" : "combining";
    return options_.prefetch ? base + "+pre" : base;
  }
  bool StateFingerprintSupported() const override {
    return policy_->StateFingerprintSupported();
  }
  uint64_t StateFingerprint() const override BPW_NO_THREAD_SAFETY_ANALYSIS;
  uint64_t SlotStateFingerprint(const ThreadSlot* slot) const override;
  Status CheckQuiescedInvariants() const override;

  const Options& options() const { return options_; }

  // --- Observable counters (all relaxed atomics, post-commit updated) -----

  uint64_t stale_commits() const {
    return stale_commits_.load(std::memory_order_relaxed);
  }
  /// Batches applied to the policy (own publications, own queue
  /// remainders, and adopted peer slots each count as one).
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
  /// Batches published into a slot / published entries (conservation LHS).
  uint64_t published_batches() const {
    return published_batches_.load(std::memory_order_relaxed);
  }
  uint64_t published_entries() const {
    return published_entries_.load(std::memory_order_relaxed);
  }
  /// Peer slots a combiner claimed and applied on behalf of their owners —
  /// the acquisitions flat combining saved.
  uint64_t combined_peer_batches() const {
    return combined_peer_batches_.load(std::memory_order_relaxed);
  }
  /// Times a thread's failed TryLock ended with the lock holder adopting
  /// its published batch during the bounded handoff spin.
  uint64_t handoff_adoptions() const {
    return handoff_adoptions_.load(std::memory_order_relaxed);
  }

 private:
  /// One publication slot. The atomic `state` is the whole synchronization
  /// story (see the protocol diagram above); `entries`/`count` are the
  /// baton it passes. Cacheline-padded via CacheAligned so peers polling
  /// their own slot never false-share with a neighbour's publish.
  struct PubSlot {
    enum State : uint32_t { kEmpty = 0, kReady = 1, kDraining = 2 };
    /// Relaxed is legal only for the owner peeking its own slot (nobody
    /// else writes it back to kEmpty without the owner observing it first);
    /// every cross-thread transition is CAS or release-store.
    std::atomic<uint32_t> state{kEmpty} BPW_RELAXED_OK(
        "owner-side peek; cross-thread transitions are CAS/release");
    /// Valid entries in `entries`; written by the owner before the kReady
    /// release-store, read by the combiner after its acquire-load.
    size_t count = 0 BPW_PUBLISHED_BY(state);
    std::vector<AccessQueue::Entry> entries BPW_PUBLISHED_BY(state);
  };

  static constexpr size_t kNoPubSlot = ~size_t{0};

  /// Bounded cooperative-handoff spin: after a failed TryLock with a batch
  /// published, poll the slot this many times for adoption by the current
  /// lock holder before giving up (still never blocking).
  static constexpr size_t kHandoffSpins = 4;

  class Slot : public ThreadSlot {
   public:
    Slot(CombiningCoordinator* owner, size_t queue_size)
        : owner_(owner), queue(queue_size) {}
    ~Slot() override;

    CombiningCoordinator* owner_;
    AccessQueue queue;
    /// Index into pub_slots_, or kNoPubSlot when the array was exhausted
    /// (or empty) at registration: plain BP-Wrapper behaviour then.
    size_t pub_index = kNoPubSlot;
    /// Combine-time scratch: indices of peer slots this thread claimed in
    /// the current apply phase, recycled post-release. Capacity reserved
    /// at registration so the locked phase never allocates.
    std::vector<size_t> claimed;
  };

  /// What one locked apply phase did; consumed by the lock-free
  /// post-commit phase after the early release. Construction stamps the
  /// start of the commit-trace span when tracing is on.
  struct DrainOutcome {
    uint64_t batches = 0;
    uint64_t entries = 0;  ///< applied (net of stale)
    uint64_t stale = 0;
    uint64_t drained_published = 0;  ///< conservation RHS contribution
    uint64_t peer_batches = 0;
    bool trace = obs::TraceEnabled();
    uint64_t trace_start = trace ? NowNanos() : 0;
  };

  /// §III-B prefetch of everything the apply phase will touch from this
  /// thread's own state (lock word, published batch, private queue).
  /// Peer batches are unknowable before the lock is held; the combiner
  /// prefetches each claimed slot's entries right after the claim instead.
  void PrefetchForCombine(const Slot* slot) const BPW_EXCLUDES(lock_);

  /// Moves the private queue into this thread's publication slot
  /// (kEmpty → kReady). Requires the slot to be observed kEmpty. Lock-free:
  /// this is the whole point of publication.
  void Publish(Slot* slot, PubSlot& pub) BPW_EXCLUDES(lock_);

  /// Replays `n` entries into the policy with §IV-B tag re-validation.
  /// Returns how many were stale-skipped.
  uint64_t ApplyEntriesLocked(const AccessQueue::Entry* entries, size_t n)
      BPW_REQUIRES(lock_);

  /// Applies this thread's pending publication (if any) and private-queue
  /// remainder, in that (per-thread FIFO) order.
  void DrainOwnLocked(Slot* slot, DrainOutcome& out) BPW_REQUIRES(lock_)
      BPW_HOLD_EFFECT_OK(alloc, "claimed-slot list push_back; capacity is "
                                "reserved to max_threads at registration");

  /// Claims (kReady → kDraining) and applies every peer's ready slot.
  /// Claimed indices land in slot->claimed for post-release recycling.
  void DrainPeersLocked(Slot* slot, DrainOutcome& out) BPW_REQUIRES(lock_)
      BPW_HOLD_EFFECT_OK(alloc, "claimed-slot list push_back; capacity is "
                                "reserved to max_threads at registration");

  /// The flat-combining commit: locked apply phase (own batch + own queue
  /// + all ready peers), then EARLY RELEASE, then the lock-free post-commit
  /// phase (recycle claimed slots, counters, trace). Annotated RELEASE:
  /// callers enter holding lock_ and leave without it.
  void CombineAndRelease(Slot* slot) BPW_RELEASE(lock_)
      BPW_HOLD_EFFECT_OK(clock, "combine-latency trace stamp; one vDSO read "
                                "per combine, only when tracing is on");

  /// Post-commit phase shared by every path: recycles the claimed slots
  /// (kDraining → kEmpty) and folds `out` into the counters. Must run
  /// WITHOUT lock_ held — the bpw_lint post-commit-under-lock rule exists
  /// to keep it that way.
  void PostCommitBookkeeping(Slot* slot, const DrainOutcome& out)
      BPW_EXCLUDES(lock_)
      BPW_HOLD_EFFECT_OK(clock,
                         "trace stamp; runs after lock_ is released");

  PubSlot* PubFor(Slot* slot) {
    return slot->pub_index == kNoPubSlot ? nullptr
                                         : &*pub_slots_[slot->pub_index];
  }

  std::unique_ptr<ReplacementPolicy> policy_;
  Options options_;
  ContentionLock lock_;

  /// Fixed at construction; indices are claimed/released under slots_mu_
  /// but the slots themselves are synchronized purely by their state flag.
  std::vector<CacheAligned<PubSlot>> pub_slots_;

  std::atomic<uint64_t> stale_commits_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> commit_batches_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> committed_entries_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> lock_fallbacks_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> published_batches_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> published_entries_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> drained_entries_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> combined_peer_batches_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> handoff_adoptions_{0} BPW_RELAXED_OK("stats counter");

  // Live-slot registry + publication-slot index allocator.
  Mutex slots_mu_;
  std::unordered_set<Slot*> slots_ BPW_GUARDED_BY(slots_mu_);
  std::vector<bool> pub_in_use_ BPW_GUARDED_BY(slots_mu_);

  // Declared last so it unregisters before anything it reads is destroyed.
  obs::ScopedMetricSource metrics_source_;
};

}  // namespace bpw
