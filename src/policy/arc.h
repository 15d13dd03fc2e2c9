// ARC replacement (Megiddo & Modha, FAST 2003) — Adaptive Replacement
// Cache, cited by the paper as a representative advanced algorithm whose
// clock approximation (CAR) gives up hit ratio. Keeps two resident LRU
// lists (T1 recency, T2 frequency) plus two ghost lists (B1, B2) and
// continuously adapts the target size `p` of T1.
//
// API note: textbook ARC adapts `p` and runs REPLACE inside one atomic
// step. This library splits a miss into ChooseVictim (eviction, before the
// I/O) and OnMiss (insertion, after the I/O), so the adaptation of `p`
// happens in OnMiss and the REPLACE decision sees a `p` that lags by at
// most one miss — a negligible approximation that keeps policies oblivious
// to the buffer pool's two-phase miss path.
#pragma once

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "policy/intrusive_list.h"
#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class ArcPolicy : public ReplacementPolicy {
 public:
  explicit ArcPolicy(size_t num_frames);

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
  std::string name() const override { return "arc"; }

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
    Link link;
  };

  using List = IntrusiveList<Node, &Node::link>;

  List& ListOf(ListId id);
  bool IsGhost(ListId id) const {
    return id == ListId::kB1 || id == ListId::kB2;
  }

  /// Moves a resident node out of its T-list into ghost list `ghost`.
  void EvictToGhost(Node* node, ListId ghost);

  /// Deletes the LRU node of a ghost list entirely.
  void DropGhostLru(ListId ghost);

  std::unordered_map<PageId, std::unique_ptr<Node>> index_;
  std::vector<Node*> frame_nodes_;

  List t1_, t2_, b1_, b2_;  // front = MRU
  size_t p_ = 0;            // adaptive target for |T1|
};

}  // namespace bpw
