// LRU-2 replacement (O'Neil, O'Neil & Weikum, SIGMOD 1993) — the LRU-K
// algorithm with K=2. Historically the first of the "deep history"
// database replacement algorithms: it evicts the page whose *second*-most-
// recent reference lies furthest in the past (maximum backward K-distance),
// so one-time scans cannot displace the working set. 2Q (the paper's
// representative advanced policy) was proposed as a constant-time
// approximation of exactly this algorithm, which makes LRU-2 a natural
// member of this library's policy family.
//
// Pages referenced fewer than twice have infinite backward-2 distance and
// are evicted first (LRU among themselves). History of evicted pages is
// retained in a bounded ghost table (the "Retained Information Period"),
// so a page reloaded soon after eviction keeps its reference history.
#pragma once

#include <map>
#include <unordered_map>

#include "policy/intrusive_list.h"
#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class LruKPolicy : public ReplacementPolicy {
 public:
  struct Params {
    /// Ghost (retained-history) capacity; 0 means num_frames.
    size_t history_capacity = 0;
  };

  explicit LruKPolicy(size_t num_frames)
      : LruKPolicy(num_frames, Params()) {}
  LruKPolicy(size_t num_frames, Params params);

  void OnHit(PageId page, FrameId frame) override BPW_REQUIRES(this);
  void OnMiss(PageId page, FrameId frame) override BPW_REQUIRES(this)
      BPW_HOLD_EFFECT_OK(alloc, "ordered-map insert of the loaded page; "
                                "bounded by num_frames");
  StatusOr<Victim> ChooseVictim(const EvictableFn& evictable,
                                PageId incoming) override BPW_REQUIRES(this)
      BPW_HOLD_EFFECT_OK(indirect, "evictable is the pool pin check: it "
                                   "reads frame state and never blocks");
  void OnErase(PageId page, FrameId frame) override BPW_REQUIRES(this);
  Status CheckInvariants() const override BPW_REQUIRES_SHARED(this);
  size_t resident_count() const override BPW_REQUIRES_SHARED(this) {
    return order_.size();
  }
  bool IsResident(PageId page) const override BPW_REQUIRES_SHARED(this);
  std::string name() const override { return "lru2"; }

  // Introspection for tests.
  size_t history_size() const { return ghost_index_.size(); }
  /// The (t2, t1) reference history of a resident page; (0,0) if unknown.
  std::pair<uint64_t, uint64_t> HistoryOf(PageId page) const;

 private:
  struct Node {
    PageId page = kInvalidPageId;
    bool resident = false;
    uint64_t t1 = 0;  // most recent reference time (logical)
    uint64_t t2 = 0;  // previous reference time; 0 = none (infinite dist.)
    uint64_t key = 0;  // current position key in order_
  };

  struct GhostNode {
    PageId page = kInvalidPageId;
    uint64_t t1 = 0;
    uint64_t t2 = 0;
    Link link;
  };

  /// Eviction-priority key: pages with < 2 references sort below (evict
  /// first, LRU by t1); others by t2. Keys are unique because each logical
  /// timestamp belongs to exactly one access.
  static uint64_t KeyFor(uint64_t t1, uint64_t t2) {
    constexpr uint64_t kSeenTwice = uint64_t{1} << 62;
    return t2 == 0 ? t1 : kSeenTwice + t2;
  }

  void Reposition(Node& node)
      BPW_HOLD_EFFECT_OK(alloc, "ordered-map re-key of a resident node; the "
                                "map never exceeds num_frames entries");
  void AddGhost(PageId page, uint64_t t1, uint64_t t2)
      BPW_HOLD_EFFECT_OK(
          alloc, "ghost-index node insert; bounded by history_capacity_");

  std::vector<Node> nodes_;             // indexed by FrameId
  std::map<uint64_t, FrameId> order_;   // eviction order: begin() first

  std::unordered_map<PageId, GhostNode> ghost_index_;
  IntrusiveList<GhostNode, &GhostNode::link> ghost_fifo_;  // front = newest
  size_t history_capacity_;

  uint64_t time_ = 0;
};

}  // namespace bpw
