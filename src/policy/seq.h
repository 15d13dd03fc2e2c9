// SEQ replacement (Glass & Cao, SIGMETRICS 1997), simplified.
//
// The paper names SEQ twice as the reason its framework must preserve
// access ordering: "many sophisticated replacement algorithms do not have
// clock-based approximations since the access information they need cannot
// be approximated by the clock structure. Examples include the SEQ
// algorithm ... as they need to know in which order the buffer pages are
// accessed for the detection of sequences" (§I), and again against
// distributed locks, which scatter a sequence over partitions (§V-A).
//
// SEQ behaves like LRU until it detects long sequences of faults to
// consecutive pages (a scan); inside a detected sequence it switches to
// pseudo-MRU, evicting pages just behind the sequence head — a scan then
// flushes itself instead of the working set.
//
// This implementation is the standard simplification: a small table of
// active miss streams {start, last, length}; eviction prefers the page a
// fixed distance behind the head of the longest stream past a detection
// threshold, falling back to LRU.
#pragma once

#include <unordered_map>

#include "policy/intrusive_list.h"
#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class SeqPolicy : public ReplacementPolicy {
 public:
  struct Params {
    /// Streams tracked concurrently; 0 means 8 (interleaved scans).
    size_t max_streams = 0;
    /// Consecutive misses before a stream counts as a sequence; 0 means 8.
    uint64_t detect_length = 0;
  };

  explicit SeqPolicy(size_t num_frames) : SeqPolicy(num_frames, Params()) {}
  SeqPolicy(size_t num_frames, Params params);

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
  std::string name() const override { return "seq"; }

  // Introspection for tests.
  size_t active_streams() const;
  /// Length of the stream currently containing `page` as its head, or 0.
  uint64_t StreamLengthAt(PageId head) const;

 private:
  struct Node {
    PageId page = kInvalidPageId;
    bool resident = false;
    Link link;
  };

  struct Stream {
    PageId start = kInvalidPageId;
    PageId last = kInvalidPageId;
    uint64_t length = 0;
    uint64_t last_update = 0;  // for LRU replacement of stream slots

    bool active() const { return start != kInvalidPageId; }
  };

  /// Updates stream detection with a missed page.
  void ObserveMiss(PageId page);

  /// Frame currently holding `page`, or kInvalidFrameId (O(1) via map-free
  /// scan is too slow; the policy keeps a small open-addressed index).
  FrameId FrameOf(PageId page) const;

  std::vector<Node> nodes_;                // indexed by FrameId
  IntrusiveList<Node, &Node::link> list_;  // front = MRU, back = LRU
  std::unordered_map<PageId, FrameId> page_index_;

  std::vector<Stream> streams_;
  uint64_t detect_length_;
  uint64_t tick_ = 0;
};

}  // namespace bpw
