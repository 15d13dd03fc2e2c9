// BufferPool: the buffer manager of Fig. 1/3 in the paper.
//
// Layout per page request (paper §II):
//   1. look up the page table (one atomic load; see page_table.h);
//   2. on a hit, pin the frame and report the access to the Coordinator —
//      which is where the paper's lock either does or does not get taken;
//   3. on a miss, pick a victim through the Coordinator, write it back if
//      dirty, read the new page from storage, publish the mapping.
//
// Concurrency design:
//   - Each frame has one atomic state word: a pin count plus a kBusy bit. A
//     hit pins with one CAS (refused while kBusy is set) and releases with
//     one fetch_sub; it takes no lock and writes no other shared line.
//     Eviction and DropPage own a frame exclusively by CASing its state
//     from 0 (idle) to kBusy.
//   - A miss is "single-flight": concurrent faults on the same page wait on
//     a condition variable instead of issuing duplicate I/O.
//   - A full pool is back-pressure: a miss that finds no evictable frame
//     waits for an unpin, and fails with ResourceExhausted only when every
//     frame is pinned.
//   - The frame tag array is atomic and shared with the Coordinator so
//     BP-Wrapper can re-validate queued accesses at commit time (§IV-B).
#pragma once

#include <condition_variable>
#include <memory>
#include <unordered_set>
#include <vector>

#include "buffer/page_table.h"
#include "core/coordinator.h"
#include "obs/metrics.h"
#include "storage/storage_engine.h"
#include "sync/mutex.h"
#include "sync/spinlock.h"
#include "util/cacheline.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace bpw {

class BufferPool;

/// RAII pin on a buffer page. While a handle is live the page cannot be
/// evicted. Move-only.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  ~PageHandle();

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId page() const { return page_; }
  FrameId frame() const { return frame_; }

  /// The frame's data (page_size bytes). Writable; call MarkDirty() after
  /// modifying so the pool writes the page back before eviction.
  uint8_t* data() const { return data_; }

  /// Marks the page dirty; it will be written back on eviction/flush.
  void MarkDirty();

  /// Releases the pin early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, PageId page, FrameId frame, uint8_t* data)
      : pool_(pool), page_(page), frame_(frame), data_(data) {}

  BufferPool* pool_ = nullptr;
  PageId page_ = kInvalidPageId;
  FrameId frame_ = kInvalidFrameId;
  uint8_t* data_ = nullptr;
};

/// Counters a worker accumulates locally (merged by the driver).
struct AccessStats {
  uint64_t hits = 0;
  uint64_t misses = 0;

  uint64_t accesses() const { return hits + misses; }
  double hit_ratio() const {
    const uint64_t total = accesses();
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

struct BufferPoolConfig {
  size_t num_frames = 1024;
  size_t page_size = kDefaultPageSize;
  /// Victim-selection attempts (each followed by a yield) before a miss
  /// that finds nothing evictable checks for a full pool and, if some frame
  /// is unpinned, waits for an unpin instead of spinning.
  int eviction_retries = 64;
  /// MUTATION KNOB — tests only. Skips the eviction-time re-validation that
  /// a chosen victim is still unpinned and still holds the selected page:
  /// the claim sets kBusy without checking the pin count.
  /// This deliberately re-introduces the race the re-validation exists to
  /// close, so the stress harness's mutation self-test can prove it detects
  /// the resulting corruption (tests/stress/mutation_test.cc).
  bool test_skip_victim_revalidation = false;
};

class BufferPool {
 public:
  /// A per-worker-thread session: wraps the coordinator's thread slot and
  /// local hit/miss counters. Create one per thread via CreateSession().
  class Session {
   public:
    const AccessStats& stats() const { return stats_; }
    void ResetStats() { stats_ = AccessStats{}; }

    /// The coordinator slot backing this session, for
    /// Coordinator::SlotStateFingerprint (model-checker state dedup).
    const Coordinator::ThreadSlot* slot() const { return slot_.get(); }

   private:
    friend class BufferPool;
    explicit Session(std::unique_ptr<Coordinator::ThreadSlot> slot)
        : slot_(std::move(slot)) {}
    std::unique_ptr<Coordinator::ThreadSlot> slot_;
    AccessStats stats_;
  };

  /// @param coordinator owns the replacement policy; the pool binds its
  ///        frame-tag array into it for commit-time re-validation.
  BufferPool(const BufferPoolConfig& config, StorageEngine* storage,
             std::unique_ptr<Coordinator> coordinator)
      BPW_HOLD_EFFECT_OK(alloc, "frame-table construction; the pool is "
                                "single-threaded until the ctor returns");
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Registers the calling thread.
  std::unique_ptr<Session> CreateSession();

  /// Fetches `page`, reading it from storage on a miss, and returns a
  /// pinned handle. A miss with nothing evictable waits for an unpin; it
  /// fails with ResourceExhausted only if every frame is pinned.
  StatusOr<PageHandle> FetchPage(Session& session, PageId page);

  /// Drops `page` from the buffer (invalidation). Fails with
  /// InvalidArgument for a page beyond storage and with FailedPrecondition
  /// if the page is pinned. The page is NOT written
  /// back: callers invalidating a page are discarding its contents.
  Status DropPage(Session& session, PageId page);

  /// Writes back every dirty page (quiesced callers only).
  Status FlushAll();

  /// Commits any accesses buffered in this session's BP-Wrapper queue.
  void FlushSession(Session& session);

  /// Pre-loads `pages` sequentially (warm-up helper for experiments).
  Status Prewarm(Session& session, PageId first_page, uint64_t count);

  Coordinator& coordinator() { return *coordinator_; }
  const Coordinator& coordinator() const { return *coordinator_; }
  StorageEngine& storage() { return *storage_; }
  size_t num_frames() const { return config_.num_frames; }
  size_t page_size() const { return config_.page_size; }

  /// Pool-wide miss-path counters.
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t writebacks() const {
    return writebacks_.load(std::memory_order_relaxed);
  }
  /// Times a chosen victim had to be re-registered because it was pinned
  /// between selection and the claim CAS (rare race; see AcquireFrame).
  uint64_t eviction_races() const {
    return eviction_races_.load(std::memory_order_relaxed);
  }
  /// Write-backs whose storage write failed (the page's last version is
  /// reported lost; with fault injection every lost update must be covered
  /// by this counter plus the injector's torn-write count).
  uint64_t writeback_failures() const {
    return writeback_failures_.load(std::memory_order_relaxed);
  }

  /// Frames with a non-zero pin count (a snapshot under concurrency). The
  /// pool is full — and a miss fails with ResourceExhausted — only when
  /// this equals num_frames().
  size_t pinned_frames() const;

  /// Structural integrity check for tests: table/tag/policy agreement.
  Status CheckIntegrity();

  /// Structural fingerprint of (frame tags, pins, dirty/io flags, free list,
  /// pending loads) for the model checker's visited-state dedup. Quiesced
  /// callers only (the cooperative scheduler holds every worker parked while
  /// fingerprinting); deliberately pointer-free so identical logical states
  /// from different executions collide.
  uint64_t StateFingerprint() const BPW_NO_THREAD_SAFETY_ANALYSIS;

 private:
  friend class PageHandle;

  // FrameMeta::state layout: the pin count in the low 31 bits, kBusy on
  // top. kBusy marks exclusive ownership (eviction, DropPage, FlushAll
  // write-back); TryPin refuses a busy frame.
  static constexpr uint32_t kBusy = 1u << 31;
  static constexpr uint32_t kPinMask = kBusy - 1;

  struct FrameMeta {
    // Pins are acquire CASes and release fetch_subs; the relaxed accesses
    // are the CAS-loop reloads and the full-pool scan, whose stale answers
    // only cost a retry or a wait slice.
    std::atomic<uint32_t> state{0} BPW_RELAXED_OK(
        "CAS-loop reloads and full-pool scans tolerate staleness");
    // Written by pin holders and the frame's exclusive owner; read by the
    // owner after its acquire claim of `state`, which orders it.
    std::atomic<bool> dirty{false} BPW_RELAXED_OK(
        "ordered by the acquire claim / release unpin of state");
  };

  uint8_t* FrameData(FrameId frame) {
    return buffer_.data() + static_cast<size_t>(frame) * config_.page_size;
  }
  PageId FrameTag(FrameId frame) const {
    return frame_tags_[frame].load(std::memory_order_acquire);
  }

  /// Attempts to pin `frame` expecting it to hold `page`. Returns false if
  /// the frame is busy or moved on (caller retries the whole fetch).
  bool TryPin(FrameId frame, PageId page);

  void Unpin(FrameId frame, bool mark_dirty);

  /// One CAS from idle (no pins, not busy) to kBusy: the exclusive claim
  /// eviction and DropPage take. Single-shot by design — a failed claim is
  /// the caller's race path, never a spin.
  bool TryClaim(FrameId frame);
  /// Clears kBusy, keeping any pins taken meanwhile (a loader's publish
  /// pin, a stale pinner's transient one).
  void ReleaseClaim(FrameId frame);

  /// Obtains a clean, unmapped frame: from the free list, or by evicting.
  /// Returns kInvalidFrameId when `attempts` victim selections all failed.
  FrameId AcquireFrame(Session& session, PageId incoming, int attempts);

  void PushFreeFrame(FrameId frame)
      BPW_HOLD_EFFECT_OK(alloc, "free-list push_back into capacity reserved "
                                "for num_frames at construction");

  /// Back-pressure signal: while a waiter is registered, every event that
  /// may make a frame evictable (an unpin to zero, a released claim, a
  /// free-list push) bumps frame_signal_->epoch and wakes the waiters.
  void FrameMayBeFree() {
    if (frame_signal_->waiters.load(std::memory_order_relaxed) != 0) {
      NotifyFrameWaiters();
    }
  }
  void NotifyFrameWaiters();
  /// Waits until frame_signal_->epoch moves past `epoch`, for at most one
  /// slice.
  void WaitForFrame(uint64_t epoch);

  /// Single-flight guard around the miss path.
  bool BeginLoad(PageId page);   // true if this thread owns the load
  void FinishLoad(PageId page);  // wakes waiters
  /// Wakes every pending_cv_ waiter, real and cooperative.
  void WakePendingWaiters();

  BufferPoolConfig config_;
  StorageEngine* storage_;
  std::unique_ptr<Coordinator> coordinator_;

  PageTable table_;
  std::vector<uint8_t> buffer_;
  std::vector<FrameMeta> frames_;
  // Published by release-store in the mapping path, acquire-loaded by
  // readers (FrameTag); the single relaxed use is the pre-table-insert
  // construction fill, where no reader exists yet.
  std::vector<std::atomic<PageId>> frame_tags_ BPW_RELAXED_OK(
      "relaxed only before publication (construction fill)");

  SpinLock free_lock_;
  std::vector<FrameId> free_frames_ BPW_GUARDED_BY(free_lock_);

  // Single-flight miss tracking and the back-pressure wait. Both wait on
  // pending_cv_. condition_variable_any (not _variable) because it waits on
  // the annotated bpw::Mutex directly, keeping the guarded_by relation
  // visible to the thread-safety analysis.
  Mutex pending_mu_;
  std::condition_variable_any pending_cv_;
  std::unordered_set<PageId> pending_loads_ BPW_GUARDED_BY(pending_mu_);

  // The back-pressure line. Every last unpin loads `waiters`, and no hit
  // writes this line, so it stays shared-clean in the steady state.
  struct FrameSignal {
    // A stale zero in Unpin loses one notification; the waiter's timed
    // slice bounds the cost.
    std::atomic<uint32_t> waiters{0} BPW_RELAXED_OK(
        "a missed waiter costs at most one wait slice");
    // Bumped under pending_mu_ so the condvar wait cannot miss it.
    std::atomic<uint64_t> epoch{0};
  };
  CacheAligned<FrameSignal> frame_signal_;

  std::atomic<uint64_t> evictions_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> writebacks_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> eviction_races_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> writeback_failures_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<bool> writeback_failure_logged_{false};

  // Registry counters (sharded; owned by the registry). Hits and misses are
  // only tallied per-session otherwise, so these give the sampler a pool-
  // wide live view.
  obs::Counter* metric_hits_ = nullptr;
  obs::Counter* metric_misses_ = nullptr;
  obs::Counter* metric_evictions_ = nullptr;
  obs::Counter* metric_writebacks_ = nullptr;
  // Declared last so it unregisters before anything it reads is destroyed.
  obs::ScopedMetricSource metrics_source_;
};

}  // namespace bpw
