// CLOCK-Pro replacement (Jiang, Chen & Zhang, USENIX ATC 2005) — the
// clock-based approximation of LIRS, cited by the paper (§I) among the
// approximations that trade hit ratio for lock-free hits. Included both as
// a policy in its own right and as the LIRS counterpart in approximation-
// vs-original hit-ratio comparisons (like CAR vs ARC).
//
// All pages — hot, resident cold, and non-resident cold (in their "test
// period") — sit on one circular clock list. Three hands sweep it:
//   HAND_cold  finds the replacement victim among resident cold pages and
//              drives promotions (a referenced cold page in its test
//              period becomes hot);
//   HAND_hot   demotes unreferenced hot pages to cold when the hot set
//              outgrows its target;
//   HAND_test  terminates test periods, bounding non-resident metadata and
//              adapting the cold-set target downward.
// The cold-set target `cold_target` adapts upward whenever a page is
// re-accessed during its test period (evidence that a bigger cold set
// would have caught it).
#pragma once

#include <memory>
#include <unordered_map>

#include "policy/intrusive_list.h"
#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class ClockProPolicy : public ReplacementPolicy {
 public:
  explicit ClockProPolicy(size_t num_frames);

  void OnHit(PageId page, FrameId frame) override BPW_REQUIRES(this);
  void OnMiss(PageId page, FrameId frame) override BPW_REQUIRES(this)
      BPW_HOLD_EFFECT_OK(alloc, "directory node for the loaded page; the "
                                "directory is bounded by the ghost caps");
  StatusOr<Victim> ChooseVictim(const EvictableFn& evictable,
                                PageId incoming) override BPW_REQUIRES(this)
      BPW_HOLD_EFFECT_OK(indirect, "evictable is the pool's victim claim: "
                                   "one CAS plus a shard scan, never blocks");
  void OnErase(PageId page, FrameId frame) override BPW_REQUIRES(this);
  Status CheckInvariants() const override BPW_REQUIRES_SHARED(this);
  size_t resident_count() const override BPW_REQUIRES_SHARED(this) {
    return hot_count_ + cold_count_;
  }
  bool IsResident(PageId page) const override BPW_REQUIRES_SHARED(this);
  std::string name() const override { return "clockpro"; }

  // Introspection for tests.
  size_t hot_count() const { return hot_count_; }
  size_t cold_count() const { return cold_count_; }
  size_t nonresident_count() const { return nonresident_count_; }
  size_t cold_target() const { return cold_target_; }

 private:
  struct Node {
    PageId page = kInvalidPageId;
    FrameId frame = kInvalidFrameId;  // kInvalidFrameId when non-resident
    bool hot = false;
    bool test = false;  // cold page in its test period
    bool ref = false;
    Link link;  // position on the clock list
  };

  using List = IntrusiveList<Node, &Node::link>;

  /// Next node clockwise, wrapping (nullptr only if the list is empty).
  Node* Clockwise(Node* node) const;

  /// Advances a hand off `node` if it points there (before removal).
  void UnhookHands(Node* node);

  /// Removes `node` from the clock and the index entirely.
  void DropNode(Node* node);

  /// Inserts `node` at the "list head" (just behind HAND_hot).
  void InsertAtHead(Node* node);

  /// HAND_hot: demote one unreferenced hot page to cold.
  void RunHandHot();

  /// HAND_test: terminate one test period (bounds non-resident metadata
  /// and adapts cold_target downward).
  void RunHandTest();

  std::unordered_map<PageId, std::unique_ptr<Node>> index_;
  std::vector<Node*> frame_nodes_;

  List clock_;
  Node* hand_hot_ = nullptr;
  Node* hand_cold_ = nullptr;
  Node* hand_test_ = nullptr;

  size_t cold_target_ = 1;  // mc, adaptive in [1, num_frames]
  size_t hot_count_ = 0;
  size_t cold_count_ = 0;          // resident cold
  size_t nonresident_count_ = 0;   // cold pages in test, evicted
  size_t max_nonresident_;         // == num_frames (the CLOCK-Pro bound)
};

}  // namespace bpw
