#include "policy/two_q.h"

#include <algorithm>

namespace bpw {

TwoQPolicy::TwoQPolicy(size_t num_frames, Params params)
    : ReplacementPolicy(num_frames), nodes_(num_frames) {
  kin_ = params.kin != 0 ? params.kin : std::max<size_t>(1, num_frames / 4);
  kout_ = params.kout != 0 ? params.kout : std::max<size_t>(1, num_frames / 2);
}

void TwoQPolicy::OnHit(PageId page, FrameId frame) {
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (node.where == Where::kNone || node.page != page) return;  // stale
  if (node.where == Where::kAm) {
    am_.MoveToFront(&node);
  }
  // Hits in A1in deliberately do nothing: 2Q only promotes pages whose
  // re-reference happens *after* they age out of A1in (correlated-reference
  // filtering).
}

void TwoQPolicy::OnMiss(PageId page, FrameId frame) {
  Node& node = nodes_[frame];
  node.page = page;
  auto ghost = a1out_index_.find(page);
  if (ghost != a1out_index_.end()) {
    // Reclaimed from A1out: this page has a proven long-term re-reference
    // interval, so it enters the hot list.
    a1out_.Remove(&ghost->second);
    a1out_index_.erase(ghost);
    node.where = Where::kAm;
    am_.PushFront(&node);
  } else {
    node.where = Where::kA1in;
    a1in_.PushFront(&node);
  }
  SetPrefetchTarget(frame, &node);
}

TwoQPolicy::Node* TwoQPolicy::TakeVictimFrom(
    IntrusiveList<Node, &Node::link>& list, const EvictableFn& evictable) {
  for (Node* node = list.Back(); node != nullptr; node = list.Prev(node)) {
    const auto frame = static_cast<FrameId>(node - nodes_.data());
    if (evictable(frame)) {
      list.Remove(node);
      return node;
    }
  }
  return nullptr;
}

StatusOr<ReplacementPolicy::Victim> TwoQPolicy::ChooseVictim(
    const EvictableFn& evictable, PageId /*incoming*/) {
  // 2Q reclaim: drain A1in while it exceeds its target share; otherwise
  // evict the coldest Am page. Fall back to the other list when the
  // preferred one has no evictable page (pins).
  const bool prefer_a1in = a1in_.size() > kin_ || am_.empty();
  Node* node = nullptr;
  bool from_a1in = false;
  if (prefer_a1in) {
    node = TakeVictimFrom(a1in_, evictable);
    from_a1in = node != nullptr;
    if (node == nullptr) node = TakeVictimFrom(am_, evictable);
  } else {
    node = TakeVictimFrom(am_, evictable);
    if (node == nullptr) {
      node = TakeVictimFrom(a1in_, evictable);
      from_a1in = node != nullptr;
    }
  }
  if (node == nullptr) {
    return NoEvictableFrame();
  }
  const auto frame = static_cast<FrameId>(node - nodes_.data());
  const PageId page = node->page;
  node->where = Where::kNone;
  SetPrefetchTarget(frame, nullptr);
  if (from_a1in) {
    // Pages aging out of A1in are remembered in the ghost list so a later
    // re-reference promotes them to Am.
    AddGhost(page);
  }
  return Victim{page, frame};
}

void TwoQPolicy::AddGhost(PageId page) {
  auto [it, inserted] = a1out_index_.try_emplace(page);
  if (!inserted) {
    // Already a ghost (can happen if the same page cycles quickly); refresh
    // its position.
    a1out_.MoveToFront(&it->second);
    return;
  }
  it->second.page = page;
  a1out_.PushFront(&it->second);
  BPW_BOUNDED_BY(a1out_.size() - kout_);
  while (a1out_.size() > kout_) {
    GhostNode* oldest = a1out_.PopBack();
    a1out_index_.erase(oldest->page);
  }
}

void TwoQPolicy::OnErase(PageId page, FrameId frame) {
  auto ghost = a1out_index_.find(page);
  if (ghost != a1out_index_.end()) {
    a1out_.Remove(&ghost->second);
    a1out_index_.erase(ghost);
  }
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (node.where == Where::kNone || node.page != page) return;
  if (node.where == Where::kA1in) {
    a1in_.Remove(&node);
  } else {
    am_.Remove(&node);
  }
  node.where = Where::kNone;
  SetPrefetchTarget(frame, nullptr);
}

Status TwoQPolicy::CheckInvariants() const {
  size_t in_lists = 0;
  for (const Node* n = a1in_.Front(); n != nullptr; n = a1in_.Next(n)) {
    if (n->where != Where::kA1in) {
      return Status::Corruption("2q: wrong tag on a1in node");
    }
    ++in_lists;
  }
  for (const Node* n = am_.Front(); n != nullptr; n = am_.Next(n)) {
    if (n->where != Where::kAm) {
      return Status::Corruption("2q: wrong tag on am node");
    }
    ++in_lists;
  }
  size_t flagged = 0;
  for (const Node& n : nodes_) {
    if (n.where != Where::kNone) ++flagged;
  }
  if (flagged != in_lists) {
    return Status::Corruption("2q: node tags disagree with lists");
  }
  if (in_lists > num_frames()) {
    return Status::Corruption("2q: more resident nodes than frames");
  }
  if (a1out_.size() != a1out_index_.size()) {
    return Status::Corruption("2q: ghost list/index size mismatch");
  }
  if (a1out_.size() > kout_) {
    return Status::Corruption("2q: ghost list above kout");
  }
  for (const Node& n : nodes_) {
    if (n.where != Where::kNone && InA1out(n.page)) {
      return Status::Corruption("2q: resident page also on ghost list");
    }
  }
  return Status::OK();
}

bool TwoQPolicy::IsResident(PageId page) const {
  for (const Node& n : nodes_) {
    if (n.where != Where::kNone && n.page == page) return true;
  }
  return false;
}

}  // namespace bpw
