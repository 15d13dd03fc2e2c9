#include "policy/lru.h"

#include "util/fingerprint.h"

namespace bpw {

LruPolicy::LruPolicy(size_t num_frames)
    : ReplacementPolicy(num_frames), nodes_(num_frames) {}

void LruPolicy::OnHit(PageId page, FrameId frame) {
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident || node.page != page) return;  // stale batched access
  list_.MoveToFront(&node);
}

void LruPolicy::OnMiss(PageId page, FrameId frame) {
  Node& node = nodes_[frame];
  node.page = page;
  node.resident = true;
  list_.PushFront(&node);
  SetPrefetchTarget(frame, &node);
}

StatusOr<ReplacementPolicy::Victim> LruPolicy::ChooseVictim(
    const EvictableFn& evictable, PageId /*incoming*/) {
  for (Node* node = list_.Back(); node != nullptr; node = list_.Prev(node)) {
    const auto frame = static_cast<FrameId>(node - nodes_.data());
    if (!evictable(frame)) continue;
    list_.Remove(node);
    node->resident = false;
    SetPrefetchTarget(frame, nullptr);
    return Victim{node->page, frame};
  }
  return NoEvictableFrame();
}

void LruPolicy::OnErase(PageId page, FrameId frame) {
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident || node.page != page) return;
  list_.Remove(&node);
  node.resident = false;
  SetPrefetchTarget(frame, nullptr);
}

Status LruPolicy::CheckInvariants() const {
  size_t linked = 0;
  for (const Node* n = list_.Front(); n != nullptr; n = list_.Next(n)) {
    if (!n->resident) return Status::Corruption("lru: non-resident in list");
    ++linked;
    if (linked > nodes_.size()) {
      return Status::Corruption("lru: list longer than frame count (cycle?)");
    }
  }
  if (linked != list_.size()) {
    return Status::Corruption("lru: list size counter mismatch");
  }
  size_t resident = 0;
  for (const Node& n : nodes_) {
    if (n.resident) ++resident;
  }
  if (resident != linked) {
    return Status::Corruption("lru: resident flags disagree with list");
  }
  return Status::OK();
}

bool LruPolicy::IsResident(PageId page) const {
  for (const Node& n : nodes_) {
    if (n.resident && n.page == page) return true;
  }
  return false;
}

uint64_t LruPolicy::StateFingerprint() const {
  // Recency order is the whole algorithmic state: hash (page, frame) pairs
  // in MRU→LRU order. Frame identity comes from the node's index, never its
  // address, so fingerprints are stable across executions.
  Fingerprint fp;
  for (const Node* n = list_.Front(); n != nullptr; n = list_.Next(n)) {
    fp.Combine(n->page);
    fp.Combine(static_cast<uint64_t>(n - nodes_.data()));
  }
  return fp.value();
}

}  // namespace bpw
