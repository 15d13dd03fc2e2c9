// LIRS replacement (Jiang & Zhang, SIGMETRICS 2002) — Low Inter-reference
// Recency Set. One of the advanced algorithms the paper evaluated under
// BP-Wrapper ("We also implemented systems by replacing the 2Q algorithm
// ... with the LIRS and MQ replacement algorithms", §IV-A). LIRS keeps
// richer ordering information than clock approximations can represent,
// which is exactly why it needs the lock on every hit.
//
// State:
//   Stack S — recency stack: LIR pages, resident HIR pages, and
//             *non-resident* HIR pages, most recent on top. The bottom of
//             S is always a LIR page (maintained by "stack pruning").
//   Queue Q — FIFO of resident HIR pages; its front is the eviction victim.
//
// The cache is partitioned into Llirs (LIR capacity, ~99%) and Lhirs
// (resident-HIR capacity, the rest). Non-resident HIR entries in S are
// bounded at `max_nonresident` to keep memory proportional to the cache.
#pragma once

#include <memory>
#include <unordered_map>

#include "policy/intrusive_list.h"
#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class LirsPolicy : public ReplacementPolicy {
 public:
  struct Params {
    /// Resident-HIR share of the cache; 0 means max(2, num_frames/100),
    /// the 1% recommended by the LIRS paper.
    size_t hir_capacity = 0;
    /// Cap on non-resident HIR entries kept in S; 0 means 2*num_frames.
    size_t max_nonresident = 0;
  };

  explicit LirsPolicy(size_t num_frames) : LirsPolicy(num_frames, Params()) {}
  LirsPolicy(size_t num_frames, Params params);

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
    return num_lir_ + q_.size();
  }
  bool IsResident(PageId page) const override BPW_REQUIRES_SHARED(this);
  std::string name() const override { return "lirs"; }

  // Introspection for tests.
  size_t lir_count() const { return num_lir_; }
  size_t resident_hir_count() const { return q_.size(); }
  size_t nonresident_count() const { return nr_.size(); }
  size_t stack_size() const { return s_.size(); }
  size_t lir_capacity() const { return lir_capacity_; }
  size_t hir_capacity() const { return hir_capacity_; }

 private:
  enum class State : uint8_t { kLir, kHirResident, kHirNonResident };

  struct Node {
    PageId page = kInvalidPageId;
    FrameId frame = kInvalidFrameId;  // kInvalidFrameId when non-resident
    State state = State::kHirResident;
    bool in_s = false;
    Link s_link;   // position in stack S
    Link q_link;   // position in queue Q (resident HIR only)
    Link nr_link;  // position in the non-resident bound FIFO
  };

  /// Removes non-LIR entries from the bottom of S until the bottom is LIR.
  void PruneStack();

  /// Demotes the bottom LIR page of S to resident HIR (tail of Q).
  void DemoteBottomLir();

  /// Deletes bookkeeping for a node entirely.
  void DropNode(Node* node);

  /// Enforces the non-resident entry bound.
  void EnforceNonResidentBound();

  std::unordered_map<PageId, std::unique_ptr<Node>> index_;
  std::vector<Node*> frame_nodes_;  // frame -> resident node (or nullptr)

  IntrusiveList<Node, &Node::s_link> s_;   // front = most recent (top)
  IntrusiveList<Node, &Node::q_link> q_;   // front = eviction candidate
  IntrusiveList<Node, &Node::nr_link> nr_;  // front = oldest non-resident

  size_t lir_capacity_;
  size_t hir_capacity_;
  size_t max_nonresident_;
  size_t num_lir_ = 0;
};

}  // namespace bpw
