#include "policy/lirs.h"

#include <algorithm>

namespace bpw {

LirsPolicy::LirsPolicy(size_t num_frames, Params params)
    : ReplacementPolicy(num_frames), frame_nodes_(num_frames, nullptr) {
  size_t hir = params.hir_capacity != 0
                   ? params.hir_capacity
                   : std::max<size_t>(2, num_frames / 100);
  hir = std::min(hir, num_frames > 1 ? num_frames - 1 : 1);
  hir_capacity_ = std::max<size_t>(1, hir);
  lir_capacity_ = num_frames > hir_capacity_ ? num_frames - hir_capacity_ : 1;
  max_nonresident_ =
      params.max_nonresident != 0 ? params.max_nonresident : 2 * num_frames;
}

void LirsPolicy::PruneStack() {
  BPW_BOUNDED_BY(s_.size());
  while (!s_.empty()) {
    Node* bottom = s_.Back();
    if (bottom->state == State::kLir) return;
    s_.Remove(bottom);
    bottom->in_s = false;
    if (bottom->state == State::kHirNonResident) {
      // A non-resident entry that leaves S carries no information anymore.
      nr_.Remove(bottom);
      DropNode(bottom);
    }
    // Resident HIR entries stay in Q; they just lose their stack position.
  }
}

void LirsPolicy::DemoteBottomLir() {
  Node* bottom = s_.Back();
  if (bottom == nullptr || bottom->state != State::kLir) return;
  s_.Remove(bottom);
  bottom->in_s = false;
  bottom->state = State::kHirResident;
  --num_lir_;
  q_.PushBack(bottom);
  PruneStack();
}

void LirsPolicy::DropNode(Node* node) {
  if (node->frame != kInvalidFrameId && node->frame < frame_nodes_.size() &&
      frame_nodes_[node->frame] == node) {
    frame_nodes_[node->frame] = nullptr;
    SetPrefetchTarget(node->frame, nullptr);
  }
  index_.erase(node->page);  // destroys *node
}

void LirsPolicy::EnforceNonResidentBound() {
  BPW_BOUNDED_BY(nr_.size() - max_nonresident_);
  while (nr_.size() > max_nonresident_) {
    Node* oldest = nr_.PopFront();
    if (oldest->in_s) {
      s_.Remove(oldest);
      oldest->in_s = false;
    }
    DropNode(oldest);
  }
  PruneStack();
}

void LirsPolicy::OnHit(PageId page, FrameId frame) {
  if (frame >= frame_nodes_.size()) return;
  Node* node = frame_nodes_[frame];
  if (node == nullptr || node->page != page) return;  // stale batched access

  if (node->state == State::kLir) {
    s_.MoveToFront(node);
    PruneStack();
    return;
  }
  // Resident HIR hit.
  if (node->in_s) {
    // Its inter-reference recency beat some LIR page: promote.
    node->state = State::kLir;
    ++num_lir_;
    q_.Remove(node);
    s_.MoveToFront(node);
    if (num_lir_ > lir_capacity_) DemoteBottomLir();
    PruneStack();
  } else {
    // Not in S: keep HIR status, refresh recency in both structures.
    s_.PushFront(node);
    node->in_s = true;
    q_.MoveToBack(node);
    // Degenerate case (only after mass erases): with zero LIR pages the
    // bottom-is-LIR invariant demands an empty stack; pruning strips the
    // node straight back out and the LIR set regrows through misses.
    PruneStack();
  }
}

void LirsPolicy::OnMiss(PageId page, FrameId frame) {
  auto it = index_.find(page);
  Node* node;
  if (it != index_.end()) {
    node = it->second.get();
    // Only non-resident entries can miss.
    if (node->state != State::kHirNonResident) return;  // stale; ignore
    // Non-resident HIR re-referenced while still in S: its reuse distance
    // is within the LIR working set, so it enters LIR.
    nr_.Remove(node);
    node->state = State::kLir;
    node->frame = frame;
    ++num_lir_;
    s_.MoveToFront(node);
    if (num_lir_ > lir_capacity_) DemoteBottomLir();
    PruneStack();
  } else {
    auto owned = std::make_unique<Node>();
    node = owned.get();
    node->page = page;
    node->frame = frame;
    index_.emplace(page, std::move(owned));
    if (num_lir_ < lir_capacity_) {
      // Warm-up: fill the LIR set first.
      node->state = State::kLir;
      ++num_lir_;
      s_.PushFront(node);
      node->in_s = true;
    } else {
      node->state = State::kHirResident;
      s_.PushFront(node);
      node->in_s = true;
      q_.PushBack(node);
    }
  }
  frame_nodes_[frame] = node;
  SetPrefetchTarget(frame, node);
}

StatusOr<ReplacementPolicy::Victim> LirsPolicy::ChooseVictim(
    const EvictableFn& evictable, PageId /*incoming*/) {
  // Normal case: the front of Q (the oldest resident HIR page).
  for (Node* node = q_.Front(); node != nullptr; node = q_.Next(node)) {
    if (!evictable(node->frame)) continue;
    const FrameId frame = node->frame;
    const PageId page = node->page;
    q_.Remove(node);
    frame_nodes_[frame] = nullptr;
    SetPrefetchTarget(frame, nullptr);
    if (node->in_s) {
      node->state = State::kHirNonResident;
      node->frame = kInvalidFrameId;
      nr_.PushBack(node);
      EnforceNonResidentBound();
    } else {
      DropNode(node);
    }
    return Victim{page, frame};
  }
  // Fallback (every resident HIR is pinned): sacrifice the coldest
  // evictable LIR page. Pure LIRS never does this; it is required for
  // correctness under pinning.
  for (Node* node = s_.Back(); node != nullptr; node = s_.Prev(node)) {
    if (node->state != State::kLir) continue;
    if (!evictable(node->frame)) continue;
    const FrameId frame = node->frame;
    const PageId page = node->page;
    s_.Remove(node);
    node->in_s = false;
    --num_lir_;
    DropNode(node);
    PruneStack();
    return Victim{page, frame};
  }
  return NoEvictableFrame();
}

void LirsPolicy::OnErase(PageId page, FrameId frame) {
  auto it = index_.find(page);
  if (it == index_.end()) return;
  Node* node = it->second.get();
  if (node->state != State::kHirNonResident && node->frame != frame) return;
  if (node->in_s) {
    s_.Remove(node);
    node->in_s = false;
  }
  switch (node->state) {
    case State::kLir:
      --num_lir_;
      break;
    case State::kHirResident:
      q_.Remove(node);
      break;
    case State::kHirNonResident:
      nr_.Remove(node);
      break;
  }
  DropNode(node);
  PruneStack();
}

Status LirsPolicy::CheckInvariants() const {
  // Bottom of S must be LIR.
  if (!s_.empty() && s_.Back()->state != State::kLir) {
    return Status::Corruption("lirs: bottom of stack not LIR");
  }
  size_t lir = 0;
  size_t hir_res = 0;
  size_t hir_nonres = 0;
  for (const auto& [page, node] : index_) {
    if (node->page != page) {
      return Status::Corruption("lirs: index key/page mismatch");
    }
    switch (node->state) {
      case State::kLir:
        ++lir;
        if (!node->in_s) return Status::Corruption("lirs: LIR not in S");
        if (node->frame == kInvalidFrameId) {
          return Status::Corruption("lirs: LIR without frame");
        }
        break;
      case State::kHirResident:
        ++hir_res;
        if (node->frame == kInvalidFrameId) {
          return Status::Corruption("lirs: resident HIR without frame");
        }
        break;
      case State::kHirNonResident:
        ++hir_nonres;
        if (!node->in_s) {
          return Status::Corruption("lirs: non-resident HIR not in S");
        }
        if (node->frame != kInvalidFrameId) {
          return Status::Corruption("lirs: non-resident HIR with frame");
        }
        break;
    }
    if (node->state != State::kHirNonResident) {
      if (node->frame >= frame_nodes_.size() ||
          frame_nodes_[node->frame] != node.get()) {
        return Status::Corruption("lirs: frame binding broken");
      }
    }
  }
  if (lir != num_lir_) return Status::Corruption("lirs: LIR count mismatch");
  if (hir_res != q_.size()) {
    return Status::Corruption("lirs: Q size mismatch");
  }
  if (hir_nonres != nr_.size()) {
    return Status::Corruption("lirs: non-resident count mismatch");
  }
  if (num_lir_ > lir_capacity_) {
    return Status::Corruption("lirs: LIR set above capacity");
  }
  if (lir + hir_res > num_frames()) {
    return Status::Corruption("lirs: resident pages above frame count");
  }
  if (nr_.size() > max_nonresident_) {
    return Status::Corruption("lirs: non-resident bound violated");
  }
  return Status::OK();
}

bool LirsPolicy::IsResident(PageId page) const {
  auto it = index_.find(page);
  return it != index_.end() &&
         it->second->state != State::kHirNonResident;
}

}  // namespace bpw
