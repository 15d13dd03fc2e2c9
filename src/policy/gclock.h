// GCLOCK (generalized clock): like CLOCK but with a saturating reference
// counter per frame instead of a single bit, which retains slightly more
// frequency information. PostgreSQL's actual 8.2+ algorithm is GCLOCK with
// usage_count capped at 5; we default to the same cap.
#pragma once

#include <atomic>

#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class GClockPolicy : public ReplacementPolicy {
 public:
  /// @param max_count saturation cap for the per-frame reference counter.
  explicit GClockPolicy(size_t num_frames, uint32_t max_count = 5);

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
  std::string name() const override { return "gclock"; }
  bool StateFingerprintSupported() const override { return true; }
  uint64_t StateFingerprint() const override BPW_REQUIRES_SHARED(this);

  /// Lock-free hit path (see ClockPolicy::OnHitLockFree).
  void OnHitLockFree(PageId page, FrameId frame);

  uint32_t max_count() const { return max_count_; }

 private:
  struct Node {
    std::atomic<PageId> page{kInvalidPageId} BPW_RELAXED_OK("lock-free hit validation re-checks under the latch");
    std::atomic<bool> resident{false} BPW_RELAXED_OK("lock-free probes tolerate staleness; latch orders transitions");
    std::atomic<uint32_t> count{0} BPW_RELAXED_OK("GCLOCK weight; racy bumps are the algorithm's contract");
  };

  std::vector<Node> nodes_;
  uint32_t max_count_;
  size_t hand_ = 0;
  size_t resident_ = 0;
};

}  // namespace bpw
