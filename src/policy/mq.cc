#include "policy/mq.h"

#include <algorithm>
#include <bit>

namespace bpw {

MqPolicy::MqPolicy(size_t num_frames, Params params)
    : ReplacementPolicy(num_frames),
      nodes_(num_frames),
      queues_(std::max<size_t>(1, params.num_queues)) {
  life_time_ = params.life_time != 0 ? params.life_time : 2 * num_frames;
  qout_capacity_ =
      params.qout_capacity != 0 ? params.qout_capacity : 4 * num_frames;
}

uint8_t MqPolicy::QueueFor(uint64_t ref_count) const {
  if (ref_count <= 1) return 0;
  const auto level = static_cast<size_t>(63 - std::countl_zero(ref_count));
  return static_cast<uint8_t>(std::min(level, queues_.size() - 1));
}

void MqPolicy::Adjust() {
  // Check the head (LRU end) of each queue above 0; demote if its lifetime
  // elapsed. One pass per access keeps the cost O(m).
  for (size_t k = 1; k < queues_.size(); ++k) {
    Node* head = queues_[k].Front();
    if (head == nullptr || head->expire > time_) continue;
    queues_[k].Remove(head);
    head->queue = static_cast<uint8_t>(k - 1);
    head->expire = time_ + life_time_;
    queues_[k - 1].PushBack(head);  // MRU end of the lower queue
  }
}

void MqPolicy::OnHit(PageId page, FrameId frame) {
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident || node.page != page) return;  // stale
  ++time_;
  ++node.ref_count;
  queues_[node.queue].Remove(&node);
  node.queue = QueueFor(node.ref_count);
  node.expire = time_ + life_time_;
  queues_[node.queue].PushBack(&node);
  Adjust();
}

void MqPolicy::OnMiss(PageId page, FrameId frame) {
  ++time_;
  Node& node = nodes_[frame];
  node.page = page;
  node.resident = true;
  uint64_t saved = 0;
  auto ghost = qout_index_.find(page);
  if (ghost != qout_index_.end()) {
    saved = ghost->second.ref_count;
    qout_.Remove(&ghost->second);
    qout_index_.erase(ghost);
  }
  node.ref_count = saved + 1;
  node.queue = QueueFor(node.ref_count);
  node.expire = time_ + life_time_;
  queues_[node.queue].PushBack(&node);
  ++resident_;
  SetPrefetchTarget(frame, &node);
  Adjust();
}

StatusOr<ReplacementPolicy::Victim> MqPolicy::ChooseVictim(
    const EvictableFn& evictable, PageId /*incoming*/) {
  for (auto& queue : queues_) {
    for (Node* node = queue.Front(); node != nullptr; node = queue.Next(node)) {
      const auto frame = static_cast<FrameId>(node - nodes_.data());
      if (!evictable(frame)) continue;
      queue.Remove(node);
      node->resident = false;
      --resident_;
      SetPrefetchTarget(frame, nullptr);
      AddGhost(node->page, node->ref_count);
      return Victim{node->page, frame};
    }
  }
  return NoEvictableFrame();
}

void MqPolicy::AddGhost(PageId page, uint64_t ref_count) {
  auto [it, inserted] = qout_index_.try_emplace(page);
  if (!inserted) {
    it->second.ref_count = ref_count;
    qout_.MoveToFront(&it->second);
    return;
  }
  it->second.page = page;
  it->second.ref_count = ref_count;
  qout_.PushFront(&it->second);
  BPW_BOUNDED_BY(qout_.size() - qout_capacity_);
  while (qout_.size() > qout_capacity_) {
    GhostNode* oldest = qout_.PopBack();
    qout_index_.erase(oldest->page);
  }
}

void MqPolicy::OnErase(PageId page, FrameId frame) {
  auto ghost = qout_index_.find(page);
  if (ghost != qout_index_.end()) {
    qout_.Remove(&ghost->second);
    qout_index_.erase(ghost);
  }
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident || node.page != page) return;
  queues_[node.queue].Remove(&node);
  node.resident = false;
  --resident_;
  SetPrefetchTarget(frame, nullptr);
}

Status MqPolicy::CheckInvariants() const {
  size_t in_queues = 0;
  for (size_t k = 0; k < queues_.size(); ++k) {
    for (const Node* n = queues_[k].Front(); n != nullptr;
         n = queues_[k].Next(n)) {
      if (!n->resident) {
        return Status::Corruption("mq: non-resident node in queue");
      }
      if (n->queue != k) {
        return Status::Corruption("mq: node queue tag mismatch");
      }
      ++in_queues;
    }
  }
  if (in_queues != resident_) {
    return Status::Corruption("mq: resident counter mismatch");
  }
  if (in_queues > num_frames()) {
    return Status::Corruption("mq: more resident nodes than frames");
  }
  if (qout_.size() != qout_index_.size()) {
    return Status::Corruption("mq: ghost list/index size mismatch");
  }
  if (qout_.size() > qout_capacity_) {
    return Status::Corruption("mq: ghost list above capacity");
  }
  return Status::OK();
}

bool MqPolicy::IsResident(PageId page) const {
  for (const Node& n : nodes_) {
    if (n.resident && n.page == page) return true;
  }
  return false;
}

uint64_t MqPolicy::RefCountOf(PageId page) const {
  for (const Node& n : nodes_) {
    if (n.resident && n.page == page) return n.ref_count;
  }
  return 0;
}

}  // namespace bpw
