#include "policy/replacement_policy.h"

#include "sync/prefetch.h"

namespace bpw {

ReplacementPolicy::ReplacementPolicy(size_t num_frames)
    : num_frames_(num_frames), prefetch_targets_(num_frames) {
  for (auto& t : prefetch_targets_) {
    t.store(nullptr, std::memory_order_relaxed);
  }
}

void ReplacementPolicy::PrefetchHint(FrameId frame) const {
  if (frame >= prefetch_targets_.size()) return;
  const void* target = prefetch_targets_[frame].load(std::memory_order_relaxed);
  PrefetchWrite(target);
}

void ReplacementPolicy::SetPrefetchTarget(FrameId frame, const void* node) {
  if (frame >= prefetch_targets_.size()) return;
  prefetch_targets_[frame].store(node, std::memory_order_relaxed);
}

Status NoEvictableFrame() {
  return Status::ResourceExhausted("no victim");
}

}  // namespace bpw
