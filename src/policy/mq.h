// MQ replacement (Zhou, Philbin & Li, USENIX ATC 2001) — Multi-Queue.
// The third advanced algorithm the paper ran under BP-Wrapper (§IV-A):
// "In the MQ algorithm, it is moved among multiple FIFO queues" on every
// access, so like 2Q/LIRS it needs the lock per access.
//
// State: m LRU queues Q0..Qm-1; a page with reference count r sits in
// queue floor(log2(r)) (capped). Each resident page carries an expiry time
// (logical, in accesses); when the head of a queue expires it is demoted one
// level. Evicted pages go to the Qout ghost FIFO remembering their
// reference counts.
#pragma once

#include <unordered_map>

#include "policy/intrusive_list.h"
#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class MqPolicy : public ReplacementPolicy {
 public:
  struct Params {
    size_t num_queues = 8;   ///< m
    uint64_t life_time = 0;  ///< demotion timeout in accesses; 0 = frames*2
    size_t qout_capacity = 0;  ///< ghost capacity; 0 = 4*frames (paper's rec)
  };

  explicit MqPolicy(size_t num_frames) : MqPolicy(num_frames, Params()) {}
  MqPolicy(size_t num_frames, Params params);

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
  std::string name() const override { return "mq"; }

  // Introspection for tests.
  size_t queue_size(size_t k) const { return queues_[k].size(); }
  size_t num_queues() const { return queues_.size(); }
  size_t qout_size() const { return qout_.size(); }
  uint64_t life_time() const { return life_time_; }
  /// Reference count of a resident page, or 0 if not resident.
  uint64_t RefCountOf(PageId page) const;

 private:
  struct Node {
    PageId page = kInvalidPageId;
    bool resident = false;
    uint64_t ref_count = 0;
    uint64_t expire = 0;
    uint8_t queue = 0;
    Link link;
  };

  struct GhostNode {
    PageId page = kInvalidPageId;
    uint64_t ref_count = 0;
    Link link;
  };

  using List = IntrusiveList<Node, &Node::link>;

  /// Queue index for a reference count: min(m-1, floor(log2(r))).
  uint8_t QueueFor(uint64_t ref_count) const;

  /// Demotes expired queue heads one level (the paper's Adjust step, run
  /// once per access).
  void Adjust();

  void AddGhost(PageId page, uint64_t ref_count)
      BPW_HOLD_EFFECT_OK(alloc,
                         "ghost-index node insert; bounded by qout_capacity_");

  std::vector<Node> nodes_;  // indexed by FrameId
  std::vector<List> queues_;  // front = LRU end (victim side)

  std::unordered_map<PageId, GhostNode> qout_index_;
  IntrusiveList<GhostNode, &GhostNode::link> qout_;  // front = newest

  uint64_t life_time_;
  size_t qout_capacity_;
  uint64_t time_ = 0;  // logical clock: one tick per access
  size_t resident_ = 0;
};

}  // namespace bpw
