#include "policy/clock.h"

#include "util/fingerprint.h"

namespace bpw {

ClockPolicy::ClockPolicy(size_t num_frames)
    : ReplacementPolicy(num_frames), nodes_(num_frames) {}

void ClockPolicy::OnHit(PageId page, FrameId frame) {
  OnHitLockFree(page, frame);
}

void ClockPolicy::OnHitLockFree(PageId page, FrameId frame) {
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident.load(std::memory_order_relaxed) ||
      node.page.load(std::memory_order_relaxed) != page) {
    return;  // stale access
  }
  node.ref.store(true, std::memory_order_relaxed);
}

void ClockPolicy::OnMiss(PageId page, FrameId frame) {
  Node& node = nodes_[frame];
  node.page.store(page, std::memory_order_relaxed);
  node.ref.store(true, std::memory_order_relaxed);
  node.resident.store(true, std::memory_order_relaxed);
  ++resident_;
  SetPrefetchTarget(frame, &node);
}

StatusOr<ReplacementPolicy::Victim> ClockPolicy::ChooseVictim(
    const EvictableFn& evictable, PageId /*incoming*/) {
  // Two full sweeps suffice in the single-threaded case: the first sweep
  // clears every reference bit, the second finds a ref==0 frame. A third is
  // allowed to paper over evictability churn under concurrency. Lock-free
  // hits can re-set every bit as fast as the hand clears it, so the third
  // sweep ignores the bit and takes the first resident evictable frame.
  const size_t last_sweep = 2 * nodes_.size();
  const size_t limit = 3 * nodes_.size();
  for (size_t step = 0; step < limit; ++step) {
    Node& node = nodes_[hand_];
    const auto frame = static_cast<FrameId>(hand_);
    hand_ = (hand_ + 1) % nodes_.size();
    if (!node.resident.load(std::memory_order_relaxed)) continue;
    if (!evictable(frame)) continue;
    if (step < last_sweep && node.ref.load(std::memory_order_relaxed)) {
      node.ref.store(false, std::memory_order_relaxed);  // second chance
      continue;
    }
    node.resident.store(false, std::memory_order_relaxed);
    --resident_;
    SetPrefetchTarget(frame, nullptr);
    return Victim{node.page.load(std::memory_order_relaxed), frame};
  }
  return Status::ResourceExhausted("clock: no evictable frame");
}

void ClockPolicy::OnErase(PageId page, FrameId frame) {
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident.load(std::memory_order_relaxed) ||
      node.page.load(std::memory_order_relaxed) != page) {
    return;
  }
  node.resident.store(false, std::memory_order_relaxed);
  node.ref.store(false, std::memory_order_relaxed);
  --resident_;
  SetPrefetchTarget(frame, nullptr);
}

Status ClockPolicy::CheckInvariants() const {
  size_t resident = 0;
  for (const Node& n : nodes_) {
    if (n.resident.load(std::memory_order_relaxed)) ++resident;
  }
  if (resident != resident_) {
    return Status::Corruption("clock: resident counter mismatch");
  }
  if (hand_ >= nodes_.size() && !nodes_.empty()) {
    return Status::Corruption("clock: hand out of range");
  }
  return Status::OK();
}

bool ClockPolicy::IsResident(PageId page) const {
  for (const Node& n : nodes_) {
    if (n.resident.load(std::memory_order_relaxed) &&
        n.page.load(std::memory_order_relaxed) == page) {
      return true;
    }
  }
  return false;
}

uint64_t ClockPolicy::StateFingerprint() const {
  // Node array order is frame order already; the hand position is state too
  // (it decides which frame the next sweep inspects first).
  Fingerprint fp;
  for (const Node& n : nodes_) {
    fp.Combine(n.page.load(std::memory_order_relaxed));
    fp.Combine(n.resident.load(std::memory_order_relaxed) ? 1 : 0);
    fp.Combine(n.ref.load(std::memory_order_relaxed) ? 1 : 0);
  }
  fp.Combine(hand_);
  fp.Combine(resident_);
  return fp.value();
}

}  // namespace bpw
