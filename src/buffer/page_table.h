// PageTable: the dense map PageId -> FrameId.
//
// The paper's Fig. 1 leaves the hash table alone because "one lock for each
// bucket, instead of a global lock, is used" (§II) — per-bucket locks scale.
// Once BP-Wrapper batches the replacement lock away, though, those bucket
// locks become the most expensive shared writes on a hit. Page ids here are
// dense and bounded by StorageEngine::num_pages() (FetchPage and DropPage
// bounds-check them), so the table is one atomic frame id per page: a
// lookup is one load and takes no lock. Claiming a load and erasing a
// mapping are single CASes; publishing a claimed load is one store.
// At 4 B per page the map costs a quarter of the storage engine's own
// per-page verification words.
//
// A lookup may return a frame that has since moved on to another page. That
// is harmless: the pool pins the frame and re-checks its tag before using
// it. There are no false negatives — a mapped page is always found.
//
// Single-flight lives in the slot too. A miss claims the page by CASing its
// slot from kInvalidFrameId to kLoadingFrameId; the CAS is also the
// re-check, since it fails if the page was published meanwhile. The loader
// then publishes the frame (or gives the load up) with one store. A fetcher
// that finds the sentinel waits for that store; every other slot state
// costs no extra word and no lock.
#pragma once

#include <atomic>
#include <memory>

#include "util/thread_annotations.h"
#include "util/types.h"

namespace bpw {

class PageTable {
 public:
  /// Slot value of a page whose load is in flight: claimed by one miss,
  /// not yet published. Every real frame id is below it.
  static constexpr FrameId kLoadingFrameId = kInvalidFrameId - 1;

  /// @param num_pages pages addressable through the table; every PageId
  ///        passed below must be < num_pages.
  explicit PageTable(size_t num_pages);

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  /// Returns the frame caching `page`, kLoadingFrameId while a load of it
  /// is in flight, or kInvalidFrameId.
  FrameId Lookup(PageId page) const {
    return frames_[page].load(std::memory_order_acquire);
  }

  /// Claims the load of an unmapped `page`: one CAS from kInvalidFrameId to
  /// kLoadingFrameId. Returns false if the page is mapped or another load
  /// holds it; exactly one of any number of racing claims wins.
  bool TryClaimLoad(PageId page) {
    FrameId expected = kInvalidFrameId;
    return frames_[page].compare_exchange_strong(
        expected, kLoadingFrameId, std::memory_order_acq_rel,
        std::memory_order_acquire);
  }

  // The two ends of a load are seq_cst stores, and Loading() a seq_cst
  // load: with the pool's seq_cst load-waiter count they form a Dekker pair
  // (a waiter registers then re-reads the slot; a loader stores the slot
  // then reads the count), so one of the two always sees the other.

  /// Ends a claimed load by publishing `frame` as the page's frame.
  void PublishLoad(PageId page, FrameId frame) {
    frames_[page].store(frame, std::memory_order_seq_cst);
  }
  /// Ends a claimed load without a frame; the page is unmapped again.
  void AbortLoad(PageId page) {
    frames_[page].store(kInvalidFrameId, std::memory_order_seq_cst);
  }
  /// True while a load of `page` is in flight.
  bool Loading(PageId page) const {
    return frames_[page].load(std::memory_order_seq_cst) == kLoadingFrameId;
  }

  /// Removes the mapping for `page`, but only if it currently points at
  /// `frame` (guards against racing reloads). Returns true if
  /// removed.
  bool Erase(PageId page, FrameId frame);

  /// Total mapped pages; loads in flight do not count. Scans the whole
  /// table: quiesced callers (integrity checks) only.
  size_t size() const;

  /// Pages with a load in flight. Scans the whole table, like size().
  size_t loading() const;

  size_t num_pages() const { return num_pages_; }

 private:
  size_t num_pages_;
  // Acquire/release everywhere except the construction fill, which runs
  // before the table is shared.
  std::unique_ptr<std::atomic<FrameId>[]> frames_ BPW_RELAXED_OK(
      "relaxed only before publication (construction fill)");
};

}  // namespace bpw
