#include "policy/car.h"

#include <algorithm>

namespace bpw {

CarPolicy::CarPolicy(size_t num_frames)
    : ReplacementPolicy(num_frames), frame_nodes_(num_frames, nullptr) {}

CarPolicy::List& CarPolicy::ListOf(ListId id) {
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

void CarPolicy::OnHit(PageId page, FrameId frame) {
  if (frame >= frame_nodes_.size()) return;
  Node* node = frame_nodes_[frame];
  if (node == nullptr || node->page != page) return;  // stale
  // The whole point of CAR: a hit is just a bit set, no list movement.
  node->ref = true;
}

void CarPolicy::EvictToGhost(Node* node, ListId ghost) {
  ListOf(node->list).Remove(node);
  if (node->frame != kInvalidFrameId) {
    frame_nodes_[node->frame] = nullptr;
    SetPrefetchTarget(node->frame, nullptr);
    node->frame = kInvalidFrameId;
  }
  node->ref = false;
  node->list = ghost;
  ListOf(ghost).PushFront(node);
}

void CarPolicy::DropGhostLru(ListId ghost) {
  Node* lru = ListOf(ghost).PopBack();
  if (lru != nullptr) index_.erase(lru->page);
}

StatusOr<ReplacementPolicy::Victim> CarPolicy::ChooseVictim(
    const EvictableFn& evictable, PageId /*incoming*/) {
  // The CAR replace loop. Bounded: each iteration either clears a ref bit,
  // demotes a T1 page to T2, or rotates past a pinned page; allow enough
  // steps for the worst case plus pin churn, then fall back.
  const size_t resident = t1_.size() + t2_.size();
  size_t rotations_left = 4 * resident + 8;
  size_t pinned_seen = 0;
  BPW_BOUNDED_BY(rotations_left);
  while (rotations_left-- > 0 && (!t1_.empty() || !t2_.empty())) {
    if (!t1_.empty() && (t1_.size() >= std::max<size_t>(1, p_) || t2_.empty())) {
      Node* head = t1_.Front();
      if (!head->ref) {
        if (evictable(head->frame)) {
          const Victim victim{head->page, head->frame};
          EvictToGhost(head, ListId::kB1);
          return victim;
        }
        // Pinned: rotate it to the back so the hand can advance.
        t1_.MoveToBack(head);
        if (++pinned_seen > resident) break;
      } else {
        // Referenced in T1: it has shown reuse, move to the frequency clock.
        head->ref = false;
        t1_.Remove(head);
        head->list = ListId::kT2;
        t2_.PushBack(head);
      }
    } else {
      Node* head = t2_.Front();
      if (head == nullptr) continue;
      if (!head->ref) {
        if (evictable(head->frame)) {
          const Victim victim{head->page, head->frame};
          EvictToGhost(head, ListId::kB2);
          return victim;
        }
        t2_.MoveToBack(head);
        if (++pinned_seen > resident) break;
      } else {
        head->ref = false;
        t2_.MoveToBack(head);
      }
    }
  }
  return NoEvictableFrame();
}

void CarPolicy::OnMiss(PageId page, FrameId frame) {
  const size_t c = num_frames();
  auto it = index_.find(page);
  if (it != index_.end() &&
      (it->second->list == ListId::kB1 || it->second->list == ListId::kB2)) {
    Node* node = it->second.get();
    // Ghost hit: adapt p, then insert at the tail of T2 with ref cleared.
    if (node->list == ListId::kB1) {
      const size_t delta = std::max<size_t>(1, b2_.size() / b1_.size());
      p_ = std::min(c, p_ + delta);
    } else {
      const size_t delta = std::max<size_t>(1, b1_.size() / b2_.size());
      p_ = p_ > delta ? p_ - delta : 0;
    }
    ListOf(node->list).Remove(node);
    node->list = ListId::kT2;
    node->frame = frame;
    node->ref = false;
    t2_.PushBack(node);
    frame_nodes_[frame] = node;
    SetPrefetchTarget(frame, node);
    return;
  }
  if (it != index_.end()) return;  // stale: already resident

  // New page: directory bound enforcement, then insert at T1 tail, ref=0.
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
      break;
    }
  }
  auto owned = std::make_unique<Node>();
  Node* node = owned.get();
  node->page = page;
  node->frame = frame;
  node->list = ListId::kT1;
  node->ref = false;
  index_.emplace(page, std::move(owned));
  t1_.PushBack(node);
  frame_nodes_[frame] = node;
  SetPrefetchTarget(frame, node);
}

void CarPolicy::OnErase(PageId page, FrameId frame) {
  auto it = index_.find(page);
  if (it == index_.end()) return;
  Node* node = it->second.get();
  const bool ghost =
      node->list == ListId::kB1 || node->list == ListId::kB2;
  if (!ghost && node->frame != frame) return;
  ListOf(node->list).Remove(node);
  if (node->frame != kInvalidFrameId) {
    frame_nodes_[node->frame] = nullptr;
    SetPrefetchTarget(node->frame, nullptr);
  }
  index_.erase(it);
}

Status CarPolicy::CheckInvariants() const {
  const size_t c = num_frames();
  if (t1_.size() + t2_.size() > c) {
    return Status::Corruption("car: resident clocks above capacity");
  }
  if (t1_.size() + b1_.size() > c + 1) {
    // +1 slack: the bound is re-established lazily at the next insert.
    return Status::Corruption("car: |T1|+|B1| above c");
  }
  if (t1_.size() + t2_.size() + b1_.size() + b2_.size() > 2 * c) {
    return Status::Corruption("car: directory above 2c");
  }
  if (p_ > c) return Status::Corruption("car: p above c");
  size_t counted = 0;
  for (const auto& [page, node] : index_) {
    if (node->page != page) {
      return Status::Corruption("car: index key/page mismatch");
    }
    ++counted;
    const bool ghost =
        node->list == ListId::kB1 || node->list == ListId::kB2;
    if (ghost) {
      if (node->frame != kInvalidFrameId) {
        return Status::Corruption("car: ghost node has a frame");
      }
    } else if (node->frame >= frame_nodes_.size() ||
               frame_nodes_[node->frame] != node.get()) {
      return Status::Corruption("car: frame binding broken");
    }
  }
  if (counted != t1_.size() + t2_.size() + b1_.size() + b2_.size()) {
    return Status::Corruption("car: index size disagrees with lists");
  }
  return Status::OK();
}

bool CarPolicy::IsResident(PageId page) const {
  auto it = index_.find(page);
  return it != index_.end() && it->second->list != ListId::kB1 &&
         it->second->list != ListId::kB2;
}

}  // namespace bpw
