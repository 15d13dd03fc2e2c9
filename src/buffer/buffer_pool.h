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
//   - Pins are sharded: each frame has kPinShards pin counts, one per shard,
//     and each Session is bound to one shard. A hit pins with one fetch_add
//     on its own shard's count and then reads the frame's claim word; it
//     releases with one fetch_sub on the same count. It takes no lock, and
//     with at most kPinShards sessions it writes no line another core writes.
//   - The claim word holds kBusy or 0, and only evictors, DropPage and
//     FlushAll write it. Eviction and DropPage own a frame exclusively by
//     CASing it from 0 to kBusy and then finding every shard's count at
//     zero. Pin and claim are each a seq_cst RMW followed by a seq_cst load
//     of the other side's word, so a pin and a claim never both succeed.
//   - Frame bytes live in one anonymous mapping, 2 MiB-aligned and advised
//     for transparent huge pages (FrameArena), so a large pool spans few
//     TLB entries and is not zero-filled up front.
//   - A miss is "single-flight": it claims the page's page-table slot with
//     one CAS to a loading sentinel and publishes the frame with one store.
//     Concurrent faults on the same page find the sentinel and wait on a
//     condition variable instead of issuing duplicate I/O; the loader takes
//     that condition variable's mutex only when such a waiter registered.
//   - Statistics are single-writer counters (obs::SingleWriterCounter) in
//     the Session that does the work, so a FetchPage writes no shared stats
//     line. The pool sums live sessions plus retired totals on demand.
//   - A full pool is back-pressure: a miss that finds no evictable frame
//     waits for an unpin, and fails with ResourceExhausted only when every
//     frame is pinned.
//   - The frame tag array is atomic and shared with the Coordinator so
//     BP-Wrapper can re-validate queued accesses at commit time (§IV-B).
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
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
  PageHandle(BufferPool* pool, PageId page, FrameId frame, uint32_t shard,
             uint8_t* data)
      : pool_(pool), page_(page), frame_(frame), shard_(shard), data_(data) {}

  BufferPool* pool_ = nullptr;
  PageId page_ = kInvalidPageId;
  FrameId frame_ = kInvalidFrameId;
  // The pin shard the pin was taken on; Release unpins that shard whichever
  // thread releases. It fits the padding after frame_, so a handle stays
  // four words.
  uint32_t shard_ = 0;
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
  /// the claim sets kBusy without scanning the pin shards.
  /// This deliberately re-introduces the race the re-validation exists to
  /// close, so the stress harness's mutation self-test can prove it detects
  /// the resulting corruption (tests/stress/mutation_test.cc).
  bool test_skip_victim_revalidation = false;
};

class BufferPool {
 public:
  /// Pin shards per frame. Sessions are bound to the least-loaded shard, so
  /// up to this many concurrent sessions never write one another's pin
  /// lines; more share shards, which stays correct (every pin is an RMW).
  static constexpr uint32_t kPinShards = 4;

 private:
  /// The pool counters a session's thread writes. Cache-line aligned so two
  /// sessions' counters never share a line.
  struct alignas(kCacheLineSize) SessionCounters {
    obs::SingleWriterCounter hits;
    obs::SingleWriterCounter misses;
    obs::SingleWriterCounter evictions;
    obs::SingleWriterCounter writebacks;
    obs::SingleWriterCounter eviction_races;
    obs::SingleWriterCounter writeback_failures;
  };

 public:
  /// A per-worker-thread session: wraps the coordinator's thread slot and
  /// the counters of the work done through it. Create one per thread via
  /// CreateSession(); destroy it before the pool.
  class Session {
   public:
    ~Session();

    /// Hits and misses since creation or the last ResetStats().
    AccessStats stats() const {
      return AccessStats{counters_.hits.value() - base_.hits,
                         counters_.misses.value() - base_.misses};
    }
    /// Restarts stats() from zero. The pool-wide totals (registry and
    /// accessors) keep counting: they must stay monotone.
    void ResetStats() {
      base_ = AccessStats{counters_.hits.value(), counters_.misses.value()};
    }

    /// The coordinator slot backing this session, for
    /// Coordinator::SlotStateFingerprint (model-checker state dedup).
    const Coordinator::ThreadSlot* slot() const { return slot_.get(); }

    /// The pin shard this session's pins go to (0..kPinShards-1).
    uint32_t pin_shard() const { return pin_shard_; }

   private:
    friend class BufferPool;
    Session(BufferPool* pool, std::unique_ptr<Coordinator::ThreadSlot> slot)
        : pool_(pool), slot_(std::move(slot)) {}
    BufferPool* pool_;
    std::unique_ptr<Coordinator::ThreadSlot> slot_;
    uint32_t pin_shard_ = 0;  // set once by CreateSession
    SessionCounters counters_;
    AccessStats base_;
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

  /// Pool-wide counters: the sum over live sessions plus the totals of
  /// retired ones (each call takes the session-registry mutex).
  uint64_t evictions() const { return Totals().evictions; }
  /// Eviction write-backs plus FlushAll's.
  uint64_t writebacks() const { return Totals().writebacks; }
  /// Times a chosen victim had to be re-registered because it was pinned
  /// between selection and the claim CAS (rare race; see AcquireFrame).
  uint64_t eviction_races() const { return Totals().eviction_races; }
  /// Write-backs whose storage write failed (the page's last version is
  /// reported lost; with fault injection every lost update must be covered
  /// by this counter plus the injector's torn-write count).
  uint64_t writeback_failures() const { return Totals().writeback_failures; }

  /// Frames with a non-zero pin count on some shard (a snapshot under
  /// concurrency). The pool is full — and a miss fails with
  /// ResourceExhausted — only when this equals num_frames().
  size_t pinned_frames() const;

  /// Structural integrity check for tests: table/tag/policy agreement.
  Status CheckIntegrity();

  /// Structural fingerprint of (frame tags, pins, dirty/io flags, free list,
  /// loads in flight, waiter registrations) for the model checker's
  /// visited-state dedup. Quiesced callers only (the cooperative scheduler
  /// holds every worker parked while fingerprinting); deliberately
  /// pointer-free so identical logical states from different executions
  /// collide.
  uint64_t StateFingerprint() const BPW_NO_THREAD_SAFETY_ANALYSIS;

 private:
  friend class PageHandle;

  /// Frame bytes: one private anonymous mapping, 2 MiB-aligned. An arena
  /// of at least 2 MiB is advised with MADV_HUGEPAGE; where transparent
  /// huge pages are off the advice is ignored and the arena runs on base
  /// pages. Pages are zero-filled by the kernel on first touch, not up
  /// front.
  class FrameArena {
   public:
    explicit FrameArena(size_t bytes);
    ~FrameArena();

    FrameArena(const FrameArena&) = delete;
    FrameArena& operator=(const FrameArena&) = delete;

    uint8_t* data() const { return data_; }

   private:
    uint8_t* data_ = nullptr;
    size_t length_ = 0;  // bytes, rounded up to the base page size
  };

  // The claim word (FrameMeta::state) is 0 or kBusy. kBusy marks exclusive
  // ownership (eviction, DropPage, FlushAll write-back); TryPin refuses a
  // busy frame.
  static constexpr uint32_t kBusy = 1u << 31;

  struct FrameMeta {
    // The claim word. Written only by claimers (CAS / fetch_or / fetch_and);
    // the relaxed loads are DropPage's error-message choice and the
    // snapshot readers, whose stale answers cost nothing.
    std::atomic<uint32_t> state{0} BPW_RELAXED_OK(
        "status-message and snapshot reads tolerate staleness");
    // Written by pin holders and the frame's exclusive owner; read by the
    // owner after its claim, whose shard scan acquires every unpin.
    std::atomic<bool> dirty{false} BPW_RELAXED_OK(
        "ordered by the claim's acquire scan / release unpin of the pins");
  };

  // One cache line of one shard's pin counts. Each shard's array starts on
  // its own line, so sessions of different shards never share a pin line.
  static constexpr size_t kPinsPerLine = kCacheLineSize / sizeof(uint32_t);
  struct alignas(kCacheLineSize) PinLine {
    // Pins are seq_cst fetch_adds (TryPin) and release fetch_subs. The
    // relaxed accesses, each marked at its site, are the loader's publish
    // pin and the quiesced fingerprint's reads.
    std::atomic<uint32_t> count[kPinsPerLine];
  };

  std::atomic<uint32_t>& PinCount(uint32_t shard, FrameId frame) const {
    return pins_[shard * pin_lines_per_shard_ + frame / kPinsPerLine]
        .count[frame % kPinsPerLine];
  }
  /// True if any shard holds a pin on `frame`.
  bool Pinned(FrameId frame) const;

  uint8_t* FrameData(FrameId frame) {
    return arena_.data() + static_cast<size_t>(frame) * config_.page_size;
  }
  PageId FrameTag(FrameId frame) const {
    return frame_tags_[frame].load(std::memory_order_acquire);
  }

  /// Attempts to pin `frame` on `shard`, expecting it to hold `page`.
  /// Returns false if the frame is busy or moved on (caller retries the
  /// whole fetch).
  bool TryPin(FrameId frame, PageId page, uint32_t shard);

  void Unpin(FrameId frame, uint32_t shard);

  /// One CAS of the claim word from 0 to kBusy, then a scan that finds
  /// every shard's pin count at zero: the exclusive claim eviction and
  /// DropPage take. Single-shot by design — a failed claim is the caller's
  /// race path, never a spin.
  bool TryClaim(FrameId frame);
  /// Clears kBusy. Pins taken meanwhile (a loader's publish pin, a stale
  /// pinner's transient one) live in the shards and are untouched.
  void ReleaseClaim(FrameId frame);

  /// Obtains a clean, unmapped frame: from the free list, or by evicting.
  /// Returns kInvalidFrameId when `attempts` victim selections all failed.
  FrameId AcquireFrame(Session& session, PageId incoming, int attempts);

  void PushFreeFrame(FrameId frame)
      BPW_HOLD_EFFECT_OK(alloc, "free-list push_back into capacity reserved "
                                "for num_frames at construction");

  /// Back-pressure signal: while a waiter is registered, every event that
  /// may make a frame evictable (a shard's pin count reaching zero, a
  /// released claim on an unpinned frame, a free-list push) bumps
  /// signal_->epoch and wakes the waiters.
  void FrameMayBeFree() {
    if (signal_->frame_waiters.load(std::memory_order_relaxed) != 0) {
      NotifyFrameWaiters();
    }
  }
  void NotifyFrameWaiters();
  /// Waits until signal_->epoch moves past `epoch`, for at most one slice.
  void WaitForFrame(uint64_t epoch);

  /// Single-flight wait: parks until the load of `page` that another
  /// fetcher claimed in the page table is published or given up.
  void WaitForLoad(PageId page);
  /// The loader's side, after PublishLoad/AbortLoad: wakes load waiters if
  /// any registered.
  void LoadEnded();
  /// Wakes every pending_cv_ waiter, real and cooperative.
  void WakePendingWaiters();

  /// Sum of every live session's counters plus the retired totals.
  struct PoolTotals {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
    uint64_t eviction_races = 0;
    uint64_t writeback_failures = 0;

    void Add(const SessionCounters& counters);
  };
  PoolTotals Totals() const;
  /// Folds a dying session's counters into retired_ and unregisters it.
  void RetireSession(Session* session);

  BufferPoolConfig config_;
  StorageEngine* storage_;
  std::unique_ptr<Coordinator> coordinator_;

  PageTable table_;
  FrameArena arena_;
  std::vector<FrameMeta> frames_;
  // kPinShards shard-major arrays of pin counts, each pin_lines_per_shard_
  // lines long (see PinCount).
  size_t pin_lines_per_shard_;
  std::unique_ptr<PinLine[]> pins_;
  // Published by release-store in the mapping path, acquire-loaded by
  // readers (FrameTag); the single relaxed use is the pre-table-insert
  // construction fill, where no reader exists yet.
  std::vector<std::atomic<PageId>> frame_tags_ BPW_RELAXED_OK(
      "relaxed only before publication (construction fill)");

  SpinLock free_lock_;
  std::vector<FrameId> free_frames_ BPW_GUARDED_BY(free_lock_);
  // free_frames_.size(), stored under free_lock_ and read without it.
  // The free list is empty in steady state, so a miss that reads zero skips
  // free_lock_; a stale zero only sends it to eviction, and the frame
  // pushed meanwhile is taken by the next miss.
  std::atomic<size_t> free_hint_{0} BPW_RELAXED_OK(
      "hint; a stale zero costs one eviction, never correctness");

  // The single-flight and back-pressure waits. Both wait on pending_cv_.
  // condition_variable_any (not _variable) because it waits on the
  // annotated bpw::Mutex directly, keeping the guarded_by relation visible
  // to the thread-safety analysis.
  Mutex pending_mu_;
  std::condition_variable_any pending_cv_;

  // The waiters line. Every last unpin loads `frame_waiters` and every
  // load's end loads `load_waiters`; no hit writes this line, so it stays
  // shared-clean in the steady state. The two counts are kept apart so a
  // loader that gives up its load (and then waits for a frame) never wakes
  // itself.
  struct WaitSignal {
    // A stale zero in Unpin loses one notification; the waiter's timed
    // slice bounds the cost.
    std::atomic<uint32_t> frame_waiters{0} BPW_RELAXED_OK(
        "a missed waiter costs at most one wait slice");
    // Bumped under pending_mu_ so the condvar wait cannot miss it.
    std::atomic<uint64_t> epoch{0};
    // Fetchers parked on a page's loading sentinel. Registration and the
    // loader's check are seq_cst (see PageTable::PublishLoad): the load
    // wait has no timeout. The relaxed deregistration only risks a spare
    // wake.
    std::atomic<uint32_t> load_waiters{0} BPW_RELAXED_OK(
        "deregistration; a stale nonzero costs one spare wake");
  };
  CacheAligned<WaitSignal> signal_;

  std::atomic<bool> writeback_failure_logged_{false};

  // Live sessions and the counters of retired ones (see Totals()).
  mutable Mutex sessions_mu_;
  std::vector<Session*> sessions_ BPW_GUARDED_BY(sessions_mu_);
  // Live sessions bound to each pin shard (CreateSession picks the least).
  uint32_t shard_sessions_[kPinShards] BPW_GUARDED_BY(sessions_mu_) = {};
  PoolTotals retired_ BPW_GUARDED_BY(sessions_mu_);

  // Declared last so it unregisters before anything it reads is destroyed.
  obs::ScopedMetricSource metrics_source_;
};

}  // namespace bpw
