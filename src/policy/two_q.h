// 2Q replacement (Johnson & Shasha, VLDB 1994) — the "full version" with
// A1in / A1out / Am. This is the advanced algorithm the paper wires into
// PostgreSQL as its representative high-hit-ratio policy ("pg2Q"): hits in
// the Am list move pages to the MRU end, which requires the lock on every
// access — the behaviour BP-Wrapper exists to make scalable.
//
// Structure:
//   A1in  — FIFO of resident pages seen once recently (no movement on hit)
//   A1out — FIFO *ghost* list of page ids evicted from A1in
//   Am    — LRU of resident pages re-referenced while in A1out ("hot")
#pragma once

#include <unordered_map>

#include "policy/intrusive_list.h"
#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class TwoQPolicy : public ReplacementPolicy {
 public:
  /// Tuning knobs from the 2Q paper: Kin defaults to 25% of the buffer,
  /// Kout to 50% (in pages).
  struct Params {
    size_t kin = 0;   ///< A1in target size; 0 means num_frames/4
    size_t kout = 0;  ///< A1out ghost capacity; 0 means num_frames/2
  };

  explicit TwoQPolicy(size_t num_frames) : TwoQPolicy(num_frames, Params()) {}
  TwoQPolicy(size_t num_frames, Params params);

  void OnHit(PageId page, FrameId frame) override BPW_REQUIRES(this);
  void OnMiss(PageId page, FrameId frame) override BPW_REQUIRES(this);
  StatusOr<Victim> ChooseVictim(const EvictableFn& evictable,
                                PageId incoming) override BPW_REQUIRES(this);
  void OnErase(PageId page, FrameId frame) override BPW_REQUIRES(this);
  Status CheckInvariants() const override BPW_REQUIRES_SHARED(this);
  size_t resident_count() const override BPW_REQUIRES_SHARED(this) {
    return a1in_.size() + am_.size();
  }
  bool IsResident(PageId page) const override BPW_REQUIRES_SHARED(this);
  std::string name() const override { return "2q"; }

  // Introspection for tests.
  size_t a1in_size() const { return a1in_.size(); }
  size_t a1out_size() const { return a1out_.size(); }
  size_t am_size() const { return am_.size(); }
  size_t kin() const { return kin_; }
  size_t kout() const { return kout_; }
  /// True if `page` is currently on the A1out ghost list.
  bool InA1out(PageId page) const {
    return a1out_index_.find(page) != a1out_index_.end();
  }

 private:
  enum class Where : uint8_t { kNone, kA1in, kAm };

  struct Node {
    PageId page = kInvalidPageId;
    Where where = Where::kNone;
    Link link;
  };

  struct GhostNode {
    PageId page = kInvalidPageId;
    Link link;
  };

  /// Evicts the first evictable node from `list` scanning from the back
  /// (oldest). Returns nullptr if none qualifies.
  Node* TakeVictimFrom(IntrusiveList<Node, &Node::link>& list,
                       const EvictableFn& evictable)
      BPW_HOLD_EFFECT_OK(indirect, "evictable is the pool pin check: it "
                                   "reads frame state and never blocks");

  /// Pushes `page` onto the A1out ghost list, trimming it to kout_.
  void AddGhost(PageId page)
      BPW_HOLD_EFFECT_OK(alloc, "ghost-index node insert; bounded by kout_");

  std::vector<Node> nodes_;                 // indexed by FrameId
  IntrusiveList<Node, &Node::link> a1in_;   // front = newest
  IntrusiveList<Node, &Node::link> am_;     // front = MRU

  std::unordered_map<PageId, GhostNode> a1out_index_;
  IntrusiveList<GhostNode, &GhostNode::link> a1out_;  // front = newest

  size_t kin_;
  size_t kout_;
};

}  // namespace bpw
