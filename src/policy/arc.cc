#include "policy/arc.h"

#include <algorithm>

namespace bpw {

ArcPolicy::ArcPolicy(size_t num_frames)
    : ReplacementPolicy(num_frames), frame_nodes_(num_frames, nullptr) {}

ArcPolicy::List& ArcPolicy::ListOf(ListId id) {
  switch (id) {
    case ListId::kT1:
      return t1_;
    case ListId::kT2:
      return t2_;
    case ListId::kB1:
      return b1_;
    case ListId::kB2:
      return b2_;
  }
  __builtin_unreachable();
}

void ArcPolicy::OnHit(PageId page, FrameId frame) {
  if (frame >= frame_nodes_.size()) return;
  Node* node = frame_nodes_[frame];
  if (node == nullptr || node->page != page) return;  // stale
  // Cases I: any resident hit moves the page to the MRU end of T2.
  ListOf(node->list).Remove(node);
  node->list = ListId::kT2;
  t2_.PushFront(node);
}

void ArcPolicy::EvictToGhost(Node* node, ListId ghost) {
  ListOf(node->list).Remove(node);
  if (node->frame != kInvalidFrameId) {
    frame_nodes_[node->frame] = nullptr;
    SetPrefetchTarget(node->frame, nullptr);
    node->frame = kInvalidFrameId;
  }
  node->list = ghost;
  ListOf(ghost).PushFront(node);
}

void ArcPolicy::DropGhostLru(ListId ghost) {
  Node* lru = ListOf(ghost).PopBack();
  if (lru != nullptr) index_.erase(lru->page);
}

StatusOr<ReplacementPolicy::Victim> ArcPolicy::ChooseVictim(
    const EvictableFn& evictable, PageId incoming) {
  // REPLACE(x, p): evict from T1 if it exceeds its target (or exactly meets
  // it and the missing page is a frequency ghost), else from T2.
  bool incoming_in_b2 = false;
  if (auto it = index_.find(incoming); it != index_.end()) {
    incoming_in_b2 = it->second->list == ListId::kB2;
  }
  const bool prefer_t1 =
      !t1_.empty() &&
      (t1_.size() > p_ || (incoming_in_b2 && t1_.size() == p_) || t2_.empty());

  List* primary = prefer_t1 ? &t1_ : &t2_;
  List* secondary = prefer_t1 ? &t2_ : &t1_;
  const ListId primary_ghost = prefer_t1 ? ListId::kB1 : ListId::kB2;
  const ListId secondary_ghost = prefer_t1 ? ListId::kB2 : ListId::kB1;

  for (auto [list, ghost] :
       {std::pair{primary, primary_ghost}, {secondary, secondary_ghost}}) {
    for (Node* node = list->Back(); node != nullptr; node = list->Prev(node)) {
      if (!evictable(node->frame)) continue;
      const Victim victim{node->page, node->frame};
      EvictToGhost(node, ghost);
      return victim;
    }
  }
  return NoEvictableFrame();
}

void ArcPolicy::OnMiss(PageId page, FrameId frame) {
  const size_t c = num_frames();
  auto it = index_.find(page);
  if (it != index_.end() && IsGhost(it->second->list)) {
    Node* node = it->second.get();
    // Cases II/III: ghost hit — adapt the target and promote to T2.
    if (node->list == ListId::kB1) {
      const size_t delta =
          std::max<size_t>(1, b1_.empty() ? 1 : b2_.size() / b1_.size());
      p_ = std::min(c, p_ + delta);
    } else {
      const size_t delta =
          std::max<size_t>(1, b2_.empty() ? 1 : b1_.size() / b2_.size());
      p_ = p_ > delta ? p_ - delta : 0;
    }
    ListOf(node->list).Remove(node);
    node->list = ListId::kT2;
    node->frame = frame;
    t2_.PushFront(node);
    frame_nodes_[frame] = node;
    SetPrefetchTarget(frame, node);
    return;
  }
  if (it != index_.end()) return;  // stale: already resident

  // Case IV: a brand-new page. Enforce the directory bounds before
  // inserting into T1.
  if (t1_.size() + b1_.size() >= c && !b1_.empty()) {
    DropGhostLru(ListId::kB1);
  }
  BPW_BOUNDED_BY(b1_.size() + b2_.size());
  while (t1_.size() + t2_.size() + b1_.size() + b2_.size() >= 2 * c) {
    if (!b2_.empty()) {
      DropGhostLru(ListId::kB2);
    } else if (!b1_.empty()) {
      DropGhostLru(ListId::kB1);
    } else {
      break;  // directory is all-resident; nothing to trim
    }
  }
  auto owned = std::make_unique<Node>();
  Node* node = owned.get();
  node->page = page;
  node->frame = frame;
  node->list = ListId::kT1;
  index_.emplace(page, std::move(owned));
  t1_.PushFront(node);
  frame_nodes_[frame] = node;
  SetPrefetchTarget(frame, node);
}

void ArcPolicy::OnErase(PageId page, FrameId frame) {
  auto it = index_.find(page);
  if (it == index_.end()) return;
  Node* node = it->second.get();
  if (!IsGhost(node->list) && node->frame != frame) return;
  ListOf(node->list).Remove(node);
  if (node->frame != kInvalidFrameId) {
    frame_nodes_[node->frame] = nullptr;
    SetPrefetchTarget(node->frame, nullptr);
  }
  index_.erase(it);
}

Status ArcPolicy::CheckInvariants() const {
  const size_t c = num_frames();
  if (t1_.size() + t2_.size() > c) {
    return Status::Corruption("arc: resident lists above capacity");
  }
  if (t1_.size() + b1_.size() > c) {
    return Status::Corruption("arc: |T1|+|B1| above c");
  }
  if (t1_.size() + t2_.size() + b1_.size() + b2_.size() > 2 * c) {
    return Status::Corruption("arc: directory above 2c");
  }
  if (p_ > c) return Status::Corruption("arc: p above c");
  size_t counted = 0;
  for (const auto& [page, node] : index_) {
    if (node->page != page) {
      return Status::Corruption("arc: index key/page mismatch");
    }
    ++counted;
    const bool ghost =
        node->list == ListId::kB1 || node->list == ListId::kB2;
    if (ghost) {
      if (node->frame != kInvalidFrameId) {
        return Status::Corruption("arc: ghost node has a frame");
      }
    } else {
      if (node->frame >= frame_nodes_.size() ||
          frame_nodes_[node->frame] != node.get()) {
        return Status::Corruption("arc: frame binding broken");
      }
    }
  }
  if (counted !=
      t1_.size() + t2_.size() + b1_.size() + b2_.size()) {
    return Status::Corruption("arc: index size disagrees with lists");
  }
  return Status::OK();
}

bool ArcPolicy::IsResident(PageId page) const {
  auto it = index_.find(page);
  return it != index_.end() && it->second->list != ListId::kB1 &&
         it->second->list != ListId::kB2;
}

}  // namespace bpw
