#include "policy/lru_k.h"

#include <algorithm>

namespace bpw {

LruKPolicy::LruKPolicy(size_t num_frames, Params params)
    : ReplacementPolicy(num_frames), nodes_(num_frames) {
  history_capacity_ =
      params.history_capacity != 0 ? params.history_capacity : num_frames;
}

void LruKPolicy::Reposition(Node& node) {
  order_.erase(node.key);
  node.key = KeyFor(node.t1, node.t2);
  order_.emplace(node.key, static_cast<FrameId>(&node - nodes_.data()));
}

void LruKPolicy::OnHit(PageId page, FrameId frame) {
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident || node.page != page) return;  // stale
  ++time_;
  node.t2 = node.t1;
  node.t1 = time_;
  Reposition(node);
}

void LruKPolicy::OnMiss(PageId page, FrameId frame) {
  ++time_;
  Node& node = nodes_[frame];
  node.page = page;
  node.resident = true;
  auto ghost = ghost_index_.find(page);
  if (ghost != ghost_index_.end()) {
    // Retained history: this access shifts the remembered chain.
    node.t2 = ghost->second.t1;
    ghost_fifo_.Remove(&ghost->second);
    ghost_index_.erase(ghost);
  } else {
    node.t2 = 0;
  }
  node.t1 = time_;
  node.key = KeyFor(node.t1, node.t2);
  order_.emplace(node.key, frame);
  SetPrefetchTarget(frame, &node);
}

StatusOr<ReplacementPolicy::Victim> LruKPolicy::ChooseVictim(
    const EvictableFn& evictable, PageId /*incoming*/) {
  for (auto it = order_.begin(); it != order_.end(); ++it) {
    const FrameId frame = it->second;
    if (!evictable(frame)) continue;
    Node& node = nodes_[frame];
    const PageId page = node.page;
    AddGhost(page, node.t1, node.t2);
    order_.erase(it);
    node.resident = false;
    SetPrefetchTarget(frame, nullptr);
    return Victim{page, frame};
  }
  return NoEvictableFrame();
}

void LruKPolicy::AddGhost(PageId page, uint64_t t1, uint64_t t2) {
  auto [it, inserted] = ghost_index_.try_emplace(page);
  it->second.page = page;
  it->second.t1 = t1;
  it->second.t2 = t2;
  if (!inserted) {
    ghost_fifo_.MoveToFront(&it->second);
    return;
  }
  ghost_fifo_.PushFront(&it->second);
  BPW_BOUNDED_BY(ghost_fifo_.size() - history_capacity_);
  while (ghost_fifo_.size() > history_capacity_) {
    GhostNode* oldest = ghost_fifo_.PopBack();
    ghost_index_.erase(oldest->page);
  }
}

void LruKPolicy::OnErase(PageId page, FrameId frame) {
  auto ghost = ghost_index_.find(page);
  if (ghost != ghost_index_.end()) {
    ghost_fifo_.Remove(&ghost->second);
    ghost_index_.erase(ghost);
  }
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident || node.page != page) return;
  order_.erase(node.key);
  node.resident = false;
  SetPrefetchTarget(frame, nullptr);
}

Status LruKPolicy::CheckInvariants() const {
  size_t resident = 0;
  for (const Node& node : nodes_) {
    if (!node.resident) continue;
    ++resident;
    auto it = order_.find(node.key);
    if (it == order_.end() ||
        &nodes_[it->second] != &node) {
      return Status::Corruption("lru2: order-map binding broken");
    }
    if (node.t2 != 0 && node.t2 >= node.t1) {
      return Status::Corruption("lru2: history not strictly ordered");
    }
  }
  if (resident != order_.size()) {
    return Status::Corruption("lru2: resident count mismatch");
  }
  if (resident > num_frames()) {
    return Status::Corruption("lru2: above capacity");
  }
  if (ghost_index_.size() != ghost_fifo_.size()) {
    return Status::Corruption("lru2: ghost index/list mismatch");
  }
  if (ghost_fifo_.size() > history_capacity_) {
    return Status::Corruption("lru2: ghost list above capacity");
  }
  return Status::OK();
}

bool LruKPolicy::IsResident(PageId page) const {
  for (const Node& node : nodes_) {
    if (node.resident && node.page == page) return true;
  }
  return false;
}

std::pair<uint64_t, uint64_t> LruKPolicy::HistoryOf(PageId page) const {
  for (const Node& node : nodes_) {
    if (node.resident && node.page == page) return {node.t2, node.t1};
  }
  return {0, 0};
}

}  // namespace bpw
