#include "policy/seq.h"

#include <algorithm>

namespace bpw {

SeqPolicy::SeqPolicy(size_t num_frames, Params params)
    : ReplacementPolicy(num_frames), nodes_(num_frames) {
  const size_t max_streams =
      params.max_streams != 0 ? params.max_streams : 8;
  streams_.resize(max_streams);
  detect_length_ = params.detect_length != 0 ? params.detect_length : 8;
  page_index_.reserve(num_frames);
}

void SeqPolicy::ObserveMiss(PageId page) {
  ++tick_;
  // Extend a stream whose head this miss continues.
  for (Stream& stream : streams_) {
    if (stream.active() && page == stream.last + 1) {
      stream.last = page;
      ++stream.length;
      stream.last_update = tick_;
      return;
    }
  }
  // Otherwise start a new stream in the stalest slot.
  Stream* slot = &streams_[0];
  for (Stream& stream : streams_) {
    if (!stream.active()) {
      slot = &stream;
      break;
    }
    if (stream.last_update < slot->last_update) slot = &stream;
  }
  slot->start = page;
  slot->last = page;
  slot->length = 1;
  slot->last_update = tick_;
}

FrameId SeqPolicy::FrameOf(PageId page) const {
  auto it = page_index_.find(page);
  return it == page_index_.end() ? kInvalidFrameId : it->second;
}

void SeqPolicy::OnHit(PageId page, FrameId frame) {
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident || node.page != page) return;  // stale
  list_.MoveToFront(&node);
}

void SeqPolicy::OnMiss(PageId page, FrameId frame) {
  ObserveMiss(page);
  Node& node = nodes_[frame];
  node.page = page;
  node.resident = true;
  list_.PushFront(&node);
  page_index_[page] = frame;
  SetPrefetchTarget(frame, &node);
}

StatusOr<ReplacementPolicy::Victim> SeqPolicy::ChooseVictim(
    const EvictableFn& evictable, PageId incoming) {
  // Sequence mode: if the incoming miss extends a detected sequence, evict
  // from just behind that sequence's head (pseudo-MRU within the scan).
  for (const Stream& stream : streams_) {
    if (!stream.active() || stream.length < detect_length_) continue;
    if (incoming != stream.last + 1 && incoming != stream.last) continue;
    // Walk backwards from the head; skip the pages nearest the head (they
    // may still be in use by the scan's look-behind).
    for (PageId back = 2; back < stream.length; ++back) {
      const PageId candidate = stream.last - back;
      const FrameId frame = FrameOf(candidate);
      if (frame == kInvalidFrameId) continue;
      if (!evictable(frame)) continue;
      Node& node = nodes_[frame];
      list_.Remove(&node);
      node.resident = false;
      page_index_.erase(candidate);
      SetPrefetchTarget(frame, nullptr);
      return Victim{candidate, frame};
    }
  }
  // LRU fallback.
  for (Node* node = list_.Back(); node != nullptr; node = list_.Prev(node)) {
    const auto frame = static_cast<FrameId>(node - nodes_.data());
    if (!evictable(frame)) continue;
    list_.Remove(node);
    node->resident = false;
    page_index_.erase(node->page);
    SetPrefetchTarget(frame, nullptr);
    return Victim{node->page, frame};
  }
  return NoEvictableFrame();
}

void SeqPolicy::OnErase(PageId page, FrameId frame) {
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident || node.page != page) return;
  list_.Remove(&node);
  node.resident = false;
  page_index_.erase(page);
  SetPrefetchTarget(frame, nullptr);
}

Status SeqPolicy::CheckInvariants() const {
  size_t linked = 0;
  for (const Node* n = list_.Front(); n != nullptr; n = list_.Next(n)) {
    if (!n->resident) return Status::Corruption("seq: non-resident in list");
    auto it = page_index_.find(n->page);
    if (it == page_index_.end() ||
        &nodes_[it->second] != n) {
      return Status::Corruption("seq: page index binding broken");
    }
    if (++linked > nodes_.size()) {
      return Status::Corruption("seq: list longer than frame count");
    }
  }
  if (linked != list_.size()) {
    return Status::Corruption("seq: list size counter mismatch");
  }
  if (page_index_.size() != linked) {
    return Status::Corruption("seq: index size disagrees with list");
  }
  return Status::OK();
}

bool SeqPolicy::IsResident(PageId page) const {
  return page_index_.find(page) != page_index_.end();
}

size_t SeqPolicy::active_streams() const {
  size_t count = 0;
  for (const Stream& stream : streams_) count += stream.active() ? 1 : 0;
  return count;
}

uint64_t SeqPolicy::StreamLengthAt(PageId head) const {
  for (const Stream& stream : streams_) {
    if (stream.active() && stream.last == head) return stream.length;
  }
  return 0;
}

}  // namespace bpw
