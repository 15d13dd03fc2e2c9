// CLOCK replacement: the approximation of LRU that PostgreSQL 8.2 adopted
// precisely because its hit path only sets a reference bit and needs no
// lock. In this library it plays two roles:
//  1. As a regular ReplacementPolicy, it can run under any coordinator
//    (useful in tests and policy comparisons).
//  2. The paper's "pgClock" yardstick system uses ClockCoordinator
//     (src/core/clock_coordinator.h), which exploits the atomic ref bits
//     here to skip the lock entirely on hits.
#pragma once

#include <atomic>

#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class ClockPolicy : public ReplacementPolicy {
 public:
  explicit ClockPolicy(size_t num_frames);

  void OnHit(PageId page, FrameId frame) override BPW_REQUIRES(this);
  void OnMiss(PageId page, FrameId frame) override BPW_REQUIRES(this);
  StatusOr<Victim> ChooseVictim(const EvictableFn& evictable,
                                PageId incoming) override BPW_REQUIRES(this)
      BPW_HOLD_EFFECT_OK(indirect, "evictable is the pool's victim claim: "
                                   "one CAS plus a shard scan, never blocks");
  void OnErase(PageId page, FrameId frame) override BPW_REQUIRES(this);
  Status CheckInvariants() const override BPW_REQUIRES_SHARED(this);
  size_t resident_count() const override BPW_REQUIRES_SHARED(this) {
    return resident_;
  }
  bool IsResident(PageId page) const override BPW_REQUIRES_SHARED(this);
  std::string name() const override { return "clock"; }
  bool StateFingerprintSupported() const override { return true; }
  uint64_t StateFingerprint() const override BPW_REQUIRES_SHARED(this);

  /// Lock-free hit path used by ClockCoordinator: sets the reference bit
  /// with a relaxed atomic store after validating the tag with relaxed
  /// loads. Safe to call concurrently with ChooseVictim.
  void OnHitLockFree(PageId page, FrameId frame);

 private:
  struct Node {
    // `page` is atomic so that OnHitLockFree can validate it without the
    // policy lock; all writes happen under the coordinator's lock.
    std::atomic<PageId> page{kInvalidPageId} BPW_RELAXED_OK("lock-free hit validation re-checks under the latch");
    std::atomic<bool> resident{false} BPW_RELAXED_OK("lock-free probes tolerate staleness; latch orders transitions");
    std::atomic<bool> ref{false} BPW_RELAXED_OK("reference bit; racy sets are the CLOCK contract");
  };

  std::vector<Node> nodes_;  // circular buffer indexed by FrameId
  size_t hand_ = 0;          // next frame the clock hand inspects
  size_t resident_ = 0;
};

}  // namespace bpw
