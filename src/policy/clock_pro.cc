#include "policy/clock_pro.h"

#include <algorithm>

namespace bpw {

ClockProPolicy::ClockProPolicy(size_t num_frames)
    : ReplacementPolicy(num_frames),
      frame_nodes_(num_frames, nullptr),
      max_nonresident_(num_frames) {}

ClockProPolicy::Node* ClockProPolicy::Clockwise(Node* node) const {
  if (node == nullptr) return clock_.Front();
  Node* next = clock_.Next(node);
  return next != nullptr ? next : clock_.Front();
}

void ClockProPolicy::UnhookHands(Node* node) {
  if (hand_hot_ == node) hand_hot_ = Clockwise(node);
  if (hand_cold_ == node) hand_cold_ = Clockwise(node);
  if (hand_test_ == node) hand_test_ = Clockwise(node);
  // If the node is the only element, the hands become the node itself
  // again; clear them so they re-seed from the front after removal.
  if (hand_hot_ == node) hand_hot_ = nullptr;
  if (hand_cold_ == node) hand_cold_ = nullptr;
  if (hand_test_ == node) hand_test_ = nullptr;
}

void ClockProPolicy::DropNode(Node* node) {
  UnhookHands(node);
  clock_.Remove(node);
  if (node->frame != kInvalidFrameId && node->frame < frame_nodes_.size() &&
      frame_nodes_[node->frame] == node) {
    frame_nodes_[node->frame] = nullptr;
    SetPrefetchTarget(node->frame, nullptr);
  }
  index_.erase(node->page);  // destroys *node
}

void ClockProPolicy::InsertAtHead(Node* node) {
  // The "list head" sits just behind HAND_hot: a new page gets a full lap
  // before HAND_hot reaches it.
  if (hand_hot_ != nullptr) {
    clock_.InsertBefore(hand_hot_, node);
  } else {
    clock_.PushBack(node);
  }
}

void ClockProPolicy::RunHandHot() {
  // Demote one unreferenced hot page to (ordinary) cold.
  size_t limit = 2 * clock_.size() + 2;
  BPW_BOUNDED_BY(limit);
  while (limit-- > 0 && hot_count_ > 0) {
    if (hand_hot_ == nullptr) hand_hot_ = clock_.Front();
    Node* node = hand_hot_;
    hand_hot_ = Clockwise(node);
    if (!node->hot) {
      // HAND_hot terminates test periods it passes (the original paper
      // folds HAND_test's duty into HAND_hot's sweep).
      if (node->frame == kInvalidFrameId) {
        if (cold_target_ > 1) --cold_target_;
        --nonresident_count_;
        DropNode(node);
      } else if (node->test) {
        node->test = false;
        if (cold_target_ > 1) --cold_target_;
      }
      continue;
    }
    if (node->ref) {
      node->ref = false;
      continue;
    }
    node->hot = false;
    node->test = false;
    node->ref = false;
    --hot_count_;
    ++cold_count_;
    return;
  }
}

void ClockProPolicy::RunHandTest() {
  // Terminate the test period of one page (bounds non-resident metadata).
  size_t limit = 2 * clock_.size() + 2;
  BPW_BOUNDED_BY(limit);
  while (limit-- > 0 && nonresident_count_ > 0) {
    if (hand_test_ == nullptr) hand_test_ = clock_.Front();
    Node* node = hand_test_;
    hand_test_ = Clockwise(node);
    if (node->hot) continue;
    if (node->frame == kInvalidFrameId) {
      if (cold_target_ > 1) --cold_target_;
      --nonresident_count_;
      DropNode(node);
      return;
    }
  }
}

void ClockProPolicy::OnHit(PageId page, FrameId frame) {
  if (frame >= frame_nodes_.size()) return;
  Node* node = frame_nodes_[frame];
  if (node == nullptr || node->page != page) return;  // stale
  node->ref = true;  // clock-style: a hit is just a reference bit
}

void ClockProPolicy::OnMiss(PageId page, FrameId frame) {
  auto it = index_.find(page);
  if (it != index_.end()) {
    Node* node = it->second.get();
    if (node->frame != kInvalidFrameId) return;  // stale: already resident
    // Re-access within the test period: the cold set was too small to
    // catch this page — grow it, and promote the page to hot.
    cold_target_ = std::min(cold_target_ + 1, num_frames());
    UnhookHands(node);
    clock_.Remove(node);
    --nonresident_count_;
    node->hot = true;
    node->test = false;
    node->ref = false;
    node->frame = frame;
    InsertAtHead(node);
    ++hot_count_;
    const size_t hot_target =
        num_frames() > cold_target_ ? num_frames() - cold_target_ : 1;
    BPW_BOUNDED_BY(hot_count_ - hot_target);
    while (hot_count_ > hot_target) {
      const size_t before = hot_count_;
      RunHandHot();
      if (hot_count_ == before) break;  // everything referenced; give up
    }
  } else {
    auto owned = std::make_unique<Node>();
    Node* node = owned.get();
    node->page = page;
    node->frame = frame;
    node->hot = false;
    node->test = true;  // every first-access cold page starts in test
    node->ref = false;
    index_.emplace(page, std::move(owned));
    InsertAtHead(node);
    ++cold_count_;
  }
  Node* node = index_.at(page).get();
  frame_nodes_[frame] = node;
  SetPrefetchTarget(frame, node);
}

StatusOr<ReplacementPolicy::Victim> ClockProPolicy::ChooseVictim(
    const EvictableFn& evictable, PageId /*incoming*/) {
  // HAND_cold: find a resident cold page with a clear reference bit.
  size_t limit = 4 * clock_.size() + 4;
  size_t skipped_pinned = 0;
  BPW_BOUNDED_BY(limit);
  while (limit-- > 0 && cold_count_ + hot_count_ > 0) {
    if (hand_cold_ == nullptr) hand_cold_ = clock_.Front();
    Node* node = hand_cold_;
    hand_cold_ = Clockwise(node);
    if (node->hot || node->frame == kInvalidFrameId) continue;

    if (node->ref) {
      if (node->test) {
        // Referenced during its test period: promote to hot.
        node->ref = false;
        node->test = false;
        node->hot = true;
        --cold_count_;
        ++hot_count_;
        const size_t hot_target =
            num_frames() > cold_target_ ? num_frames() - cold_target_ : 1;
        if (hot_count_ > hot_target) RunHandHot();
      } else {
        // Referenced ordinary cold page: second chance + a fresh test
        // period at the list head.
        node->ref = false;
        node->test = true;
        UnhookHands(node);
        clock_.Remove(node);
        InsertAtHead(node);
      }
      continue;
    }

    if (!evictable(node->frame)) {
      if (++skipped_pinned > num_frames()) break;
      continue;
    }
    // Victim found.
    const Victim victim{node->page, node->frame};
    frame_nodes_[node->frame] = nullptr;
    SetPrefetchTarget(node->frame, nullptr);
    --cold_count_;
    if (node->test) {
      // Keep it as a non-resident page until its test period ends.
      node->frame = kInvalidFrameId;
      ++nonresident_count_;
      BPW_BOUNDED_BY(nonresident_count_ - max_nonresident_);
      while (nonresident_count_ > max_nonresident_) {
        const size_t before = nonresident_count_;
        RunHandTest();
        if (nonresident_count_ == before) break;
      }
    } else {
      DropNode(node);
    }
    return victim;
  }
  // Fallback for heavy pinning: take any evictable resident page.
  for (Node* node = clock_.Front(); node != nullptr;
       node = clock_.Next(node)) {
    if (node->frame == kInvalidFrameId) continue;
    if (!evictable(node->frame)) continue;
    const Victim victim{node->page, node->frame};
    if (node->hot) {
      --hot_count_;
    } else {
      --cold_count_;
    }
    DropNode(node);
    return victim;
  }
  return NoEvictableFrame();
}

void ClockProPolicy::OnErase(PageId page, FrameId frame) {
  auto it = index_.find(page);
  if (it == index_.end()) return;
  Node* node = it->second.get();
  if (node->frame != kInvalidFrameId && node->frame != frame) return;
  if (node->frame == kInvalidFrameId) {
    --nonresident_count_;
  } else if (node->hot) {
    --hot_count_;
  } else {
    --cold_count_;
  }
  DropNode(node);
}

Status ClockProPolicy::CheckInvariants() const {
  size_t hot = 0;
  size_t cold = 0;
  size_t nonres = 0;
  for (const Node* n = clock_.Front(); n != nullptr; n = clock_.Next(n)) {
    if (n->hot) {
      ++hot;
      if (n->frame == kInvalidFrameId) {
        return Status::Corruption("clockpro: non-resident hot page");
      }
      if (n->test) {
        return Status::Corruption("clockpro: hot page in test period");
      }
    } else if (n->frame != kInvalidFrameId) {
      ++cold;
    } else {
      ++nonres;
      if (!n->test) {
        return Status::Corruption("clockpro: non-resident page not in test");
      }
    }
    if (n->frame != kInvalidFrameId) {
      if (n->frame >= frame_nodes_.size() ||
          frame_nodes_[n->frame] != n) {
        return Status::Corruption("clockpro: frame binding broken");
      }
    }
  }
  if (hot != hot_count_) {
    return Status::Corruption("clockpro: hot count mismatch");
  }
  if (cold != cold_count_) {
    return Status::Corruption("clockpro: cold count mismatch");
  }
  if (nonres != nonresident_count_) {
    return Status::Corruption("clockpro: non-resident count mismatch");
  }
  if (hot + cold > num_frames()) {
    return Status::Corruption("clockpro: resident pages above capacity");
  }
  if (index_.size() != clock_.size()) {
    return Status::Corruption("clockpro: index/clock size mismatch");
  }
  if (cold_target_ < 1 || cold_target_ > num_frames()) {
    return Status::Corruption("clockpro: cold target out of range");
  }
  return Status::OK();
}

bool ClockProPolicy::IsResident(PageId page) const {
  auto it = index_.find(page);
  return it != index_.end() && it->second->frame != kInvalidFrameId;
}

}  // namespace bpw
