#include "policy/fifo.h"

#include "util/fingerprint.h"

namespace bpw {

FifoPolicy::FifoPolicy(size_t num_frames)
    : ReplacementPolicy(num_frames), nodes_(num_frames) {}

void FifoPolicy::OnHit(PageId /*page*/, FrameId /*frame*/) {
  // FIFO ignores hits by definition.
}

void FifoPolicy::OnMiss(PageId page, FrameId frame) {
  Node& node = nodes_[frame];
  node.page = page;
  node.resident = true;
  list_.PushFront(&node);
  SetPrefetchTarget(frame, &node);
}

StatusOr<ReplacementPolicy::Victim> FifoPolicy::ChooseVictim(
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

void FifoPolicy::OnErase(PageId page, FrameId frame) {
  if (frame >= nodes_.size()) return;
  Node& node = nodes_[frame];
  if (!node.resident || node.page != page) return;
  list_.Remove(&node);
  node.resident = false;
  SetPrefetchTarget(frame, nullptr);
}

Status FifoPolicy::CheckInvariants() const {
  size_t linked = 0;
  for (const Node* n = list_.Front(); n != nullptr; n = list_.Next(n)) {
    if (!n->resident) return Status::Corruption("fifo: non-resident in list");
    if (++linked > nodes_.size()) {
      return Status::Corruption("fifo: list longer than frame count");
    }
  }
  if (linked != list_.size()) {
    return Status::Corruption("fifo: list size counter mismatch");
  }
  return Status::OK();
}

bool FifoPolicy::IsResident(PageId page) const {
  for (const Node& n : nodes_) {
    if (n.resident && n.page == page) return true;
  }
  return false;
}

uint64_t FifoPolicy::StateFingerprint() const {
  // Arrival order, newest first; node index stands in for frame id.
  Fingerprint fp;
  for (const Node* n = list_.Front(); n != nullptr; n = list_.Next(n)) {
    fp.Combine(n->page);
    fp.Combine(static_cast<uint64_t>(n - nodes_.data()));
  }
  return fp.value();
}

}  // namespace bpw
