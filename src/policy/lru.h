// LRU replacement: the canonical list-based algorithm the paper uses as its
// running example ("the LRU replacement algorithm removes the buffer page
// from the LRU list and inserts it back to the MRU end", §II). Every access
// mutates the shared list, which is exactly why it needs a lock per access
// without BP-Wrapper.
#pragma once

#include "policy/intrusive_list.h"
#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class LruPolicy : public ReplacementPolicy {
 public:
  explicit LruPolicy(size_t num_frames);

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
  std::string name() const override { return "lru"; }
  bool StateFingerprintSupported() const override { return true; }
  uint64_t StateFingerprint() const override BPW_REQUIRES_SHARED(this);

 private:
  struct Node {
    PageId page = kInvalidPageId;
    bool resident = false;
    Link link;
  };

  std::vector<Node> nodes_;                // indexed by FrameId
  IntrusiveList<Node, &Node::link> list_;  // front = MRU, back = LRU
};

}  // namespace bpw
