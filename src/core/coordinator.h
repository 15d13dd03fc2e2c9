// Coordinator: the concurrency-control seam between the buffer pool and a
// replacement policy.
//
// The paper's whole contribution lives at this seam. A policy is
// single-threaded code (see replacement_policy.h); a Coordinator decides
// *when and under which lock* the policy's bookkeeping runs:
//
//   SerializedCoordinator   — lock per access: the conventional DBMS design
//                             the paper calls "pg2Q" (optionally with the
//                             prefetch technique: "pgPre").
//   BpWrapperCoordinator    — the paper's framework: per-thread FIFO queues,
//                             batched commits via TryLock, optional
//                             prefetching ("pgBat" / "pgBatPre").
//   SharedQueueCoordinator  — one queue shared by all threads: the §III-A
//                             design the paper rejected (ablations only).
//   ClockCoordinator        — lock-free reference-bit hits for CLOCK/GCLOCK:
//                             the paper's scalability yardstick ("pgClock").
//
// Thread model: each worker thread registers once and gets a ThreadSlot; all
// per-thread state (the BP-Wrapper FIFO queue) hangs off the slot, so the
// coordinator itself stays wait-free on the recording path.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "policy/replacement_policy.h"
#include "sync/contention_lock.h"
#include "util/status.h"
#include "util/types.h"

namespace bpw {

/// Contributes a lock's counters to a metrics snapshot under the canonical
/// "lock." names. Every coordinator registers a metric source built on this
/// so the stats sampler sees policy-lock behaviour without any extra
/// hot-path cost (the lock already maintains these atomics).
inline void AppendLockMetrics(obs::MetricsSnapshot& snap,
                              const LockStats& stats) {
  snap.Add("lock.acquisitions", static_cast<double>(stats.acquisitions));
  snap.Add("lock.contentions", static_cast<double>(stats.contentions));
  snap.Add("lock.trylock_failures",
           static_cast<double>(stats.trylock_failures));
  snap.Add("lock.hold_nanos", static_cast<double>(stats.hold_nanos));
  snap.Add("lock.wait_nanos", static_cast<double>(stats.wait_nanos));
}

class Coordinator {
 public:
  using Victim = ReplacementPolicy::Victim;
  using EvictableFn = ReplacementPolicy::EvictableFn;

  /// Per-thread state handle. Obtained once per worker thread via
  /// RegisterThread(); not shareable between threads.
  class ThreadSlot {
   public:
    virtual ~ThreadSlot() = default;
  };

  virtual ~Coordinator() = default;

  /// Registers the calling worker thread. The returned slot must be passed
  /// to every subsequent call from that thread.
  virtual std::unique_ptr<ThreadSlot> RegisterThread() = 0;

  /// Records a buffer hit (page resident in frame). This is the hot path:
  /// BP-Wrapper makes it lock-free in the common case.
  virtual void OnHit(ThreadSlot* slot, PageId page, FrameId frame) = 0;

  /// Miss path, phase 1: select and detach a victim. `incoming` is the
  /// page being faulted in.
  virtual StatusOr<Victim> ChooseVictim(ThreadSlot* slot,
                                        const EvictableFn& evictable,
                                        PageId incoming) = 0;

  /// Miss path, phase 2: after the I/O, register `page` as resident in
  /// `frame`.
  virtual void CompleteMiss(ThreadSlot* slot, PageId page, FrameId frame) = 0;

  /// Forced removal (invalidation / drop). Test-and-erase: the page is
  /// removed only if the policy still has it resident, and the return value
  /// says whether it did. `false` means an in-flight eviction has already
  /// detached the page (ChooseVictim ran, the evictor has not finished) —
  /// the caller must back off and let the evictor decide the frame's fate,
  /// or the two removals race and policy/pool bookkeeping diverge.
  virtual bool OnErase(ThreadSlot* slot, PageId page, FrameId frame) = 0;

  /// Commits any state buffered in this thread's slot (BP-Wrapper queue).
  virtual void FlushSlot(ThreadSlot* slot) = 0;

  /// Aggregated statistics of the policy lock (acquisitions, contentions,
  /// hold/wait time). The paper's "average lock contention" divides
  /// .contentions by total page accesses.
  virtual LockStats lock_stats() const = 0;
  virtual void ResetLockStats() = 0;

  /// The wrapped policy. Non-const access is for tests and quiesced phases
  /// only; callers must guarantee no concurrent coordinator traffic.
  virtual const ReplacementPolicy& policy() const = 0;
  virtual ReplacementPolicy* mutable_policy() = 0;

  /// Human-readable coordinator name ("serialized", "bp-wrapper", ...).
  virtual std::string name() const = 0;

  // --- Model-checker support (src/mc) -------------------------------------
  // Structural fingerprints of coordinator-internal state (shared queues,
  // commit buffers) and per-slot state (the BP-Wrapper FIFO), used for
  // visited-state dedup. Quiesced callers only: the cooperative scheduler
  // holds every worker parked while fingerprinting. A coordinator that does
  // not implement fingerprinting reports unsupported and the explorer
  // disables dedup for the scenario (sound, just slower).

  /// Whether StateFingerprint()/SlotStateFingerprint() capture this
  /// coordinator's full logical state (including its policy's).
  virtual bool StateFingerprintSupported() const { return false; }

  /// Fingerprint of coordinator + policy state. 0 when unsupported.
  virtual uint64_t StateFingerprint() const { return 0; }

  /// Fingerprint of one thread's slot-local state (uncommitted queue
  /// entries). 0 when slots carry no state.
  virtual uint64_t SlotStateFingerprint(const ThreadSlot* slot) const {
    (void)slot;
    return 0;
  }

  /// Coordinator-internal conservation checks, run by
  /// BufferPool::CheckIntegrity() while the pool is quiesced (no thread is
  /// inside any coordinator call). Coordinators without internal hand-off
  /// state have nothing to check.
  virtual Status CheckQuiescedInvariants() const { return Status::OK(); }

  /// Binds the frame→page tag array the buffer pool maintains, used by
  /// BP-Wrapper to re-validate queued accesses at commit time (paper
  /// §IV-B). Optional: coordinators work (with slightly more stale commits)
  /// without it.
  void BindFrameTags(const std::atomic<PageId>* tags, size_t count) {
    frame_tags_ = tags;
    frame_tag_count_ = count;
  }

 protected:
  /// True if the tag array says `frame` still holds `page` (or no tag array
  /// is bound, in which case the policy's own staleness check is the only
  /// filter).
  bool TagStillValid(PageId page, FrameId frame) const {
    if (frame_tags_ == nullptr) return true;
    if (frame >= frame_tag_count_) return false;
    return frame_tags_[frame].load(std::memory_order_acquire) == page;
  }

  const std::atomic<PageId>* frame_tags_ = nullptr;
  size_t frame_tag_count_ = 0;
};

}  // namespace bpw
