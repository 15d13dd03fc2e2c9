// PageTable: the dense map PageId -> FrameId.
//
// The paper's Fig. 1 leaves the hash table alone because "one lock for each
// bucket, instead of a global lock, is used" (§II) — per-bucket locks scale.
// Once BP-Wrapper batches the replacement lock away, though, those bucket
// locks become the most expensive shared writes on a hit. Page ids here are
// dense and bounded by StorageEngine::num_pages() (FetchPage and DropPage
// bounds-check them), so the table is one atomic frame id per page: a
// lookup is one load and takes no lock. Insert and Erase are single CASes.
// At 4 B per page the map costs a quarter of the storage engine's own
// per-page verification words.
//
// A lookup may return a frame that has since moved on to another page. That
// is harmless: the pool pins the frame and re-checks its tag before using
// it. There are no false negatives — a mapped page is always found — so the
// miss path's single-flight re-check stays exact.
#pragma once

#include <atomic>
#include <memory>

#include "util/thread_annotations.h"
#include "util/types.h"

namespace bpw {

class PageTable {
 public:
  /// @param num_pages pages addressable through the table; every PageId
  ///        passed below must be < num_pages.
  explicit PageTable(size_t num_pages);

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  /// Returns the frame caching `page`, or kInvalidFrameId.
  FrameId Lookup(PageId page) const {
    return frames_[page].load(std::memory_order_acquire);
  }

  /// Maps `page` to `frame`. Returns false (and changes nothing) if the
  /// page is already mapped.
  bool Insert(PageId page, FrameId frame);

  /// Removes the mapping for `page`, but only if it currently points at
  /// `frame` (guards against racing re-insertions). Returns true if
  /// removed.
  bool Erase(PageId page, FrameId frame);

  /// Total mapped pages. Scans the whole table: quiesced callers
  /// (integrity checks) only.
  size_t size() const;

  size_t num_pages() const { return num_pages_; }

 private:
  size_t num_pages_;
  // Acquire/release everywhere except the construction fill, which runs
  // before the table is shared.
  std::unique_ptr<std::atomic<FrameId>[]> frames_ BPW_RELAXED_OK(
      "relaxed only before publication (construction fill)");
};

}  // namespace bpw
