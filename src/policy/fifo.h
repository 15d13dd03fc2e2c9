// FIFO replacement: evicts pages in arrival order and ignores hits. Included
// as the simplest correct policy — a useful baseline in tests (its behaviour
// is exactly predictable) and benchmarks (it has the cheapest possible hit
// path that still goes through the coordinator).
#pragma once

#include "policy/intrusive_list.h"
#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class FifoPolicy : public ReplacementPolicy {
 public:
  explicit FifoPolicy(size_t num_frames);

  void OnHit(PageId page, FrameId frame) override BPW_REQUIRES(this);
  void OnMiss(PageId page, FrameId frame) override BPW_REQUIRES(this);
  StatusOr<Victim> ChooseVictim(const EvictableFn& evictable,
                                PageId incoming) override BPW_REQUIRES(this)
      BPW_HOLD_EFFECT_OK(indirect, "evictable is the pool's victim claim: "
                                   "one CAS plus a shard scan, never blocks");
  void OnErase(PageId page, FrameId frame) override BPW_REQUIRES(this);
  Status CheckInvariants() const override BPW_REQUIRES_SHARED(this);
  size_t resident_count() const override BPW_REQUIRES_SHARED(this) {
    return list_.size();
  }
  bool IsResident(PageId page) const override BPW_REQUIRES_SHARED(this);
  std::string name() const override { return "fifo"; }
  bool StateFingerprintSupported() const override { return true; }
  uint64_t StateFingerprint() const override BPW_REQUIRES_SHARED(this);

 private:
  struct Node {
    PageId page = kInvalidPageId;
    bool resident = false;
    Link link;
  };

  std::vector<Node> nodes_;                // indexed by FrameId
  IntrusiveList<Node, &Node::link> list_;  // front = newest, back = oldest
};

}  // namespace bpw
