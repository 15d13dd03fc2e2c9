#include "buffer/page_table.h"

namespace bpw {

PageTable::PageTable(size_t num_pages)
    : num_pages_(num_pages),
      frames_(std::make_unique<std::atomic<FrameId>[]>(num_pages)) {
  for (size_t page = 0; page < num_pages_; ++page) {
    frames_[page].store(kInvalidFrameId, std::memory_order_relaxed);
  }
}

bool PageTable::Insert(PageId page, FrameId frame) {
  FrameId expected = kInvalidFrameId;
  return frames_[page].compare_exchange_strong(expected, frame,
                                               std::memory_order_acq_rel);
}

bool PageTable::Erase(PageId page, FrameId frame) {
  FrameId expected = frame;
  return frames_[page].compare_exchange_strong(expected, kInvalidFrameId,
                                               std::memory_order_acq_rel);
}

size_t PageTable::size() const {
  size_t mapped = 0;
  for (size_t page = 0; page < num_pages_; ++page) {
    const FrameId frame = frames_[page].load(std::memory_order_acquire);
    if (frame != kInvalidFrameId && frame != kLoadingFrameId) ++mapped;
  }
  return mapped;
}

size_t PageTable::loading() const {
  size_t loads = 0;
  for (size_t page = 0; page < num_pages_; ++page) {
    if (frames_[page].load(std::memory_order_acquire) == kLoadingFrameId) {
      ++loads;
    }
  }
  return loads;
}

}  // namespace bpw
