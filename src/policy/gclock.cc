#include "policy/gclock.h"

#include "util/fingerprint.h"

namespace bpw {

GClockPolicy::GClockPolicy(size_t num_frames, uint32_t max_count)
    : ReplacementPolicy(num_frames),
      nodes_(num_frames),
      max_count_(max_count) {}

void GClockPolicy::OnHit(PageId page, FrameId frame) {
  OnHitLockFree(page, frame);
}

void GClockPolicy::OnHitLockFree(PageId page, FrameId frame) {
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident.load(std::memory_order_relaxed) ||
      node.page.load(std::memory_order_relaxed) != page) {
    return;
  }
  // Saturating increment. A racy double-increment under the lock-free path
  // is benign (usage counts are heuristic), mirroring PostgreSQL.
  uint32_t c = node.count.load(std::memory_order_relaxed);
  if (c < max_count_) {
    node.count.store(c + 1, std::memory_order_relaxed);
  }
}

void GClockPolicy::OnMiss(PageId page, FrameId frame) {
  Node& node = nodes_[frame];
  node.page.store(page, std::memory_order_relaxed);
  node.count.store(1, std::memory_order_relaxed);
  node.resident.store(true, std::memory_order_relaxed);
  ++resident_;
  SetPrefetchTarget(frame, &node);
}

StatusOr<ReplacementPolicy::Victim> GClockPolicy::ChooseVictim(
    const EvictableFn& evictable, PageId /*incoming*/) {
  // Worst case the hand must decrement max_count_ counters to zero, which
  // a single thread always finishes within max_count_ + 1 sweeps. Lock-free
  // hits can keep raising counts under concurrency, so the one extra sweep
  // ignores the count and takes the first resident evictable frame.
  const size_t last_sweep = (max_count_ + 1) * nodes_.size();
  const size_t limit = (max_count_ + 2) * nodes_.size();
  for (size_t step = 0; step < limit; ++step) {
    Node& node = nodes_[hand_];
    const auto frame = static_cast<FrameId>(hand_);
    hand_ = (hand_ + 1) % nodes_.size();
    if (!node.resident.load(std::memory_order_relaxed)) continue;
    if (!evictable(frame)) continue;
    uint32_t c = node.count.load(std::memory_order_relaxed);
    if (step < last_sweep && c > 0) {
      node.count.store(c - 1, std::memory_order_relaxed);
      continue;
    }
    node.resident.store(false, std::memory_order_relaxed);
    --resident_;
    SetPrefetchTarget(frame, nullptr);
    return Victim{node.page.load(std::memory_order_relaxed), frame};
  }
  return NoEvictableFrame();
}

void GClockPolicy::OnErase(PageId page, FrameId frame) {
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident.load(std::memory_order_relaxed) ||
      node.page.load(std::memory_order_relaxed) != page) {
    return;
  }
  node.resident.store(false, std::memory_order_relaxed);
  node.count.store(0, std::memory_order_relaxed);
  --resident_;
  SetPrefetchTarget(frame, nullptr);
}

Status GClockPolicy::CheckInvariants() const {
  size_t resident = 0;
  for (const Node& n : nodes_) {
    if (n.resident.load(std::memory_order_relaxed)) {
      ++resident;
      if (n.count.load(std::memory_order_relaxed) > max_count_) {
        return Status::Corruption("gclock: count above cap");
      }
    }
  }
  if (resident != resident_) {
    return Status::Corruption("gclock: resident counter mismatch");
  }
  return Status::OK();
}

bool GClockPolicy::IsResident(PageId page) const {
  for (const Node& n : nodes_) {
    if (n.resident.load(std::memory_order_relaxed) &&
        n.page.load(std::memory_order_relaxed) == page) {
      return true;
    }
  }
  return false;
}

uint64_t GClockPolicy::StateFingerprint() const {
  Fingerprint fp;
  for (const Node& n : nodes_) {
    fp.Combine(n.page.load(std::memory_order_relaxed));
    fp.Combine(n.resident.load(std::memory_order_relaxed) ? 1 : 0);
    fp.Combine(n.count.load(std::memory_order_relaxed));
  }
  fp.Combine(hand_);
  fp.Combine(resident_);
  return fp.value();
}

}  // namespace bpw
