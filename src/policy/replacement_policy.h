// ReplacementPolicy: the algorithm-facing interface of the library.
//
// A policy is deliberately *single-threaded* code, exactly as the paper
// assumes: "replacement algorithms carry out their operations ... in a
// serialized fashion" (§I). All concurrency control lives outside, in a
// Coordinator (src/core). This is the contract that lets BP-Wrapper claim
// "no changes to the algorithm": every policy below is written as if it were
// the only code in the process, and the very same object runs under a
// lock-per-access coordinator, under BP-Wrapper, or single-threaded in a
// simulation.
//
// Residency model:
//  - The policy tracks at most `num_frames` *resident* pages, each bound to
//    a distinct buffer frame. Lookup of a resident page's bookkeeping node
//    is O(1) by frame id.
//  - Policies may additionally keep *ghost* (non-resident history) state
//    keyed by page id (2Q's A1out, ARC's B1/B2, LIRS's non-resident HIRs,
//    MQ's Qout, CAR's B1/B2).
//
// Robustness contract (required by BP-Wrapper's delayed commits):
//  - OnHit(page, frame) MUST be a no-op if the frame no longer holds `page`
//    or the page is not resident. With batching, a queued access can be
//    committed after the page was evicted; the paper's implementation
//    compares BufferTags and skips stale entries (§IV-B). The coordinator
//    already filters most stale entries; the policy must tolerate the rest.
//  - OnMiss(page, frame) is only called for pages that are not resident
//    (the buffer pool's single-flight miss path guarantees this).
//
// Serialization contract, statically checked: the class is itself a
// thread-safety *capability*, and every state-touching method REQUIRES it
// exclusively. A coordinator certifies the contract by calling
// AssertExclusiveAccess() right after acquiring its policy lock (the lock
// IS the exclusivity); single-threaded users (simulations, unit tests,
// quiesced integrity checks) call the same assertion, which documents and
// type-checks the "I am the only accessor" claim that previously lived in
// comments. Under clang's -Wthread-safety, calling OnHit/OnMiss/... on a
// path that made neither claim is a compile error.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "testing/schedule_point.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace bpw {

class BPW_CAPABILITY("policy") ReplacementPolicy {
 public:
  /// The page/frame pair selected for eviction.
  struct Victim {
    PageId page = kInvalidPageId;
    FrameId frame = kInvalidFrameId;
  };

  /// The caller's victim test. Calling it is the claim: a `true` answer
  /// means `frame` is now the caller's (the buffer pool has marked it busy
  /// and found it unpinned, so no pin can land on it), and ChooseVictim
  /// must return that frame without calling the claim again. `false`
  /// (pinned, busy, or lost to a concurrent pin) leaves the frame as it
  /// was. Unpinned() is a read-only probe with no side effect, for a policy
  /// that ages a frame before it decides: CLOCK and GCLOCK age only
  /// unpinned frames, as PostgreSQL's clock sweep does. A single predicate
  /// serves as both (tests, the simulator).
  class EvictableFn {
   public:
    using Predicate = std::function<bool(FrameId)>;

    /// Implicit, so a plain lambda passes where a victim test is expected.
    template <typename F>
      requires std::is_invocable_r_v<bool, F&, FrameId> &&
               (!std::is_same_v<std::decay_t<F>, EvictableFn>)
    EvictableFn(F predicate) : claim_(std::move(predicate)) {}
    EvictableFn(Predicate claim, Predicate unpinned)
        : claim_(std::move(claim)), unpinned_(std::move(unpinned)) {}

    /// The claim.
    bool operator()(FrameId frame) const { return claim_(frame); }
    /// The probe: would the claim find `frame` unpinned and unclaimed now?
    bool Unpinned(FrameId frame) const {
      return unpinned_ ? unpinned_(frame) : claim_(frame);
    }

   private:
    Predicate claim_;
    Predicate unpinned_;  // empty: the claim is a pure predicate
  };

  /// @param num_frames buffer capacity in frames; the policy will never
  ///        track more resident pages than this.
  explicit ReplacementPolicy(size_t num_frames);
  virtual ~ReplacementPolicy() = default;

  ReplacementPolicy(const ReplacementPolicy&) = delete;
  ReplacementPolicy& operator=(const ReplacementPolicy&) = delete;

  /// Records a buffer hit on `page` resident in `frame`. Must tolerate
  /// stale (page, frame) pairs (see robustness contract above).
  virtual void OnHit(PageId page, FrameId frame) BPW_REQUIRES(this) = 0;

  /// Records that `page` has been loaded into `frame` and is now resident.
  /// Preconditions: `page` not resident; `frame` not bound;
  /// resident_count() < num_frames().
  virtual void OnMiss(PageId page, FrameId frame) BPW_REQUIRES(this) = 0;

  /// Selects a resident page to evict, removes it from the policy's
  /// resident bookkeeping (possibly moving it to ghost history), and
  /// returns it. `incoming` is the page whose miss triggered the eviction
  /// (ARC/CAR consult their ghost lists for it; others ignore it).
  /// Calls `evictable` only on a frame it will return if the answer is
  /// true, so it claims at most one frame, the victim; a policy that ages
  /// candidates probes them with `evictable.Unpinned` first.
  /// Returns NoEvictableFrame() if no frame passes `evictable`.
  virtual StatusOr<Victim> ChooseVictim(const EvictableFn& evictable,
                                        PageId incoming)
      BPW_REQUIRES(this) = 0;

  /// Forcibly removes `page` (e.g. table drop / invalidation). No-op if the
  /// page is not resident. Ghost history for the page is also dropped.
  virtual void OnErase(PageId page, FrameId frame) BPW_REQUIRES(this) = 0;

  /// Structural self-check for tests: list/stack integrity, resident counts,
  /// capacity bounds, frame-binding consistency.
  virtual Status CheckInvariants() const BPW_REQUIRES_SHARED(this) = 0;

  /// Number of resident pages currently tracked.
  virtual size_t resident_count() const BPW_REQUIRES_SHARED(this) = 0;

  /// Whether `page` is tracked as resident (test hook; O(num_frames) worst
  /// case in some policies).
  virtual bool IsResident(PageId page) const BPW_REQUIRES_SHARED(this) = 0;

  /// Short algorithm name ("lru", "2q", "lirs", ...).
  virtual std::string name() const = 0;

  size_t num_frames() const { return num_frames_; }

  /// Certifies to the thread-safety analysis that the caller has exclusive
  /// access to this policy. There are exactly two legitimate ways to earn
  /// that claim, and every call site is one of them:
  ///   1. a Coordinator holding its policy lock (the lock serializes all
  ///      policy access by construction), or
  ///   2. a single-threaded / quiesced phase (simulations, unit tests,
  ///      BufferPool::CheckIntegrity).
  /// Runtime cost: one relaxed load and a predicted branch (the schedule-
  /// controller check inside BPW_MC_ACCESS_WRITE; nothing when compiled with
  /// BPW_SCHEDULE_POINTS=0). Compile-time effect under clang: the current
  /// scope gains the `policy` capability, so the REQUIRES contracts above
  /// type-check.
  ///
  /// Under the model checker this is also the dynamic half of the contract:
  /// each assertion is reported as a WRITE access to the policy object, and
  /// the vector-clock race certifier checks that every pair of assertions
  /// from different threads is ordered by happens-before. A coordinator
  /// whose locking really serializes policy access certifies clean; one that
  /// asserts exclusivity without holding a lock (the seeded
  /// test_commit_without_lock mutation) is reported as a race — the static
  /// ASSERT_CAPABILITY claim, cross-validated at run time.
  void AssertExclusiveAccess() const BPW_ASSERT_CAPABILITY(this) {
    BPW_MC_ACCESS_WRITE("policy.exclusive", this);
  }

  // --- Model-checker support (src/mc) -------------------------------------

  /// Whether StateFingerprint() captures this policy's full logical state.
  /// Policies without it still model-check; the explorer just cannot dedup
  /// visited states.
  virtual bool StateFingerprintSupported() const { return false; }

  /// Structural fingerprint of the policy's bookkeeping (recency order,
  /// reference bits, ghost lists...). Pointer-free so identical logical
  /// states from different executions collide. 0 when unsupported.
  virtual uint64_t StateFingerprint() const BPW_REQUIRES_SHARED(this) {
    return 0;
  }

  // --- Prefetch support (paper §III-B) -----------------------------------
  // PrefetchHint() is called by coordinators *without holding the policy
  // lock*, immediately before lock acquisition. It issues non-faulting
  // prefetches of the bookkeeping node a subsequent OnHit(frame) will touch.
  // The target registry uses relaxed atomics so the unlocked read is
  // well-defined; a stale target is harmless (prefetch never faults).

  /// Prefetches the bookkeeping node registered for `frame`, if any.
  void PrefetchHint(FrameId frame) const;

 protected:
  /// Registers the cache-line target PrefetchHint(frame) should touch.
  /// Called by subclasses whenever a frame's node binding changes.
  void SetPrefetchTarget(FrameId frame, const void* node);

 private:
  size_t num_frames_;
  std::vector<std::atomic<const void*>> prefetch_targets_ BPW_RELAXED_OK("prefetch hints; a racy read only mis-prefetches");
};

/// What every policy's ChooseVictim returns when no frame passes
/// `evictable`: ResourceExhausted with a message short enough for
/// std::string's inline buffer, so a failed search (which runs under the
/// policy lock) allocates nothing. Callers act on the code alone.
Status NoEvictableFrame();

}  // namespace bpw
