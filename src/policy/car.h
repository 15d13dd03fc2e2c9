// CAR replacement (Bansal & Modha, FAST 2004) — Clock with Adaptive
// Replacement. The paper names CAR as the clock-based approximation of ARC
// (§I): hits only set a reference bit, so CAR scales like CLOCK, but it
// "usually cannot achieve the high hit ratio compared to [the]
// corresponding original algorithm". It is included both as a policy in its
// own right and as the approximation baseline in hit-ratio ablations
// against ARC.
//
// State: two clocks T1 (recency) and T2 (frequency) with per-page reference
// bits, ghost LRU lists B1/B2, and ARC's adaptive target p for |T1|.
#pragma once

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "policy/intrusive_list.h"
#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class CarPolicy : public ReplacementPolicy {
 public:
  explicit CarPolicy(size_t num_frames);

  void OnHit(PageId page, FrameId frame) override BPW_REQUIRES(this);
  void OnMiss(PageId page, FrameId frame) override BPW_REQUIRES(this)
      BPW_HOLD_EFFECT_OK(alloc, "directory node for the loaded page; the "
                                "directory is bounded by the ghost caps");
  StatusOr<Victim> ChooseVictim(const EvictableFn& evictable,
                                PageId incoming) override BPW_REQUIRES(this)
      BPW_HOLD_EFFECT_OK(indirect, "evictable is the pool pin check: it "
                                   "reads frame state and never blocks");
  void OnErase(PageId page, FrameId frame) override BPW_REQUIRES(this);
  Status CheckInvariants() const override BPW_REQUIRES_SHARED(this);
  size_t resident_count() const override BPW_REQUIRES_SHARED(this) {
    return t1_.size() + t2_.size();
  }
  bool IsResident(PageId page) const override BPW_REQUIRES_SHARED(this);
  std::string name() const override { return "car"; }

  // Introspection for tests.
  size_t t1_size() const { return t1_.size(); }
  size_t t2_size() const { return t2_.size(); }
  size_t b1_size() const { return b1_.size(); }
  size_t b2_size() const { return b2_.size(); }
  size_t target_p() const { return p_; }

 private:
  enum class ListId : uint8_t { kT1, kT2, kB1, kB2 };

  struct Node {
    PageId page = kInvalidPageId;
    FrameId frame = kInvalidFrameId;
    ListId list = ListId::kT1;
    bool ref = false;
    Link link;
  };

  using List = IntrusiveList<Node, &Node::link>;

  List& ListOf(ListId id);
  void EvictToGhost(Node* node, ListId ghost);
  void DropGhostLru(ListId ghost);

  std::unordered_map<PageId, std::unique_ptr<Node>> index_;
  std::vector<Node*> frame_nodes_;

  // Clocks are lists whose front is the hand position; sweeping pops the
  // front and either evicts or re-appends at the back.
  List t1_, t2_;
  List b1_, b2_;  // front = MRU
  size_t p_ = 0;
};

}  // namespace bpw
