#include "buffer/buffer_pool.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <new>
#include <thread>
#include <unordered_set>

#include "obs/contention_profiler.h"
#include "obs/trace_recorder.h"
#include "testing/schedule_point.h"
#include "util/clock.h"
#include "util/fingerprint.h"
#include "util/logging.h"

namespace bpw {

namespace {

// One back-pressure wait: long enough to sleep through a pin holder's
// critical path, short enough that a lost wakeup costs little.
constexpr auto kFrameWaitSlice = std::chrono::milliseconds(1);

// A full pool is one whose every frame stays pinned through this many
// consecutive waits (about 100 ms when nobody unpins). Pins held by other
// threads' live handles are normally released well inside that, even when
// a holder is descheduled; pins the caller itself holds never are.
constexpr int kFullPoolWaits = 100;

// Liveness bound on back-pressure waits within one FetchPage. Every wait
// that ends early means some frame was released and another thread won it;
// thousands of losses in a row means the pool is wedged (the state fault
// injection and mutation testing produce), and an error beats a hang.
constexpr int kMaxFrameWaits = 2000;

// The x86-64 transparent huge page size; the arena is aligned to it.
constexpr size_t kHugePageSize = size_t{2} << 20;

size_t RoundUp(size_t value, size_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

}  // namespace

// ------------------------------------------------------ BufferPool::FrameArena

BufferPool::FrameArena::FrameArena(size_t bytes) {
  if (bytes == 0) return;
  const size_t length =
      RoundUp(bytes, static_cast<size_t>(sysconf(_SC_PAGESIZE)));
  // Over-map by one huge page, then unmap the slack on both sides so what
  // stays is `length` bytes from a 2 MiB boundary.
  void* raw = mmap(nullptr, length + kHugePageSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const uintptr_t start = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t base = RoundUp(start, kHugePageSize);
  if (base != start) munmap(raw, base - start);
  const uintptr_t end = base + length;
  const uintptr_t mapped_end = start + length + kHugePageSize;
  if (mapped_end != end) {
    munmap(reinterpret_cast<void*>(end), mapped_end - end);
  }
  data_ = reinterpret_cast<uint8_t*>(base);
  length_ = length;
#ifdef MADV_HUGEPAGE
  // Advice only: a small arena would round up to a whole huge page, and a
  // failure (THP compiled out) leaves the arena on base pages.
  if (bytes >= kHugePageSize) madvise(data_, length_, MADV_HUGEPAGE);
#endif
}

BufferPool::FrameArena::~FrameArena() {
  if (data_ != nullptr) munmap(data_, length_);
}

// ---------------------------------------------------------------- PageHandle

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    page_ = other.page_;
    frame_ = other.frame_;
    shard_ = other.shard_;
    data_ = other.data_;
    other.pool_ = nullptr;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::MarkDirty() {
  if (pool_ != nullptr) {
    pool_->frames_[frame_].dirty.store(true, std::memory_order_release);
  }
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, shard_);
    pool_ = nullptr;
  }
}

// ---------------------------------------------------------------- BufferPool

BufferPool::BufferPool(const BufferPoolConfig& config, StorageEngine* storage,
                       std::unique_ptr<Coordinator> coordinator)
    : config_(config),
      storage_(storage),
      coordinator_(std::move(coordinator)),
      table_(storage->num_pages()),
      arena_(config.num_frames * config.page_size),
      frames_(config.num_frames),
      pin_lines_per_shard_((config.num_frames + kPinsPerLine - 1) /
                           kPinsPerLine),
      pins_(std::make_unique<PinLine[]>(kPinShards * pin_lines_per_shard_)),
      frame_tags_(config.num_frames) {
  for (auto& tag : frame_tags_) {
    tag.store(kInvalidPageId, std::memory_order_relaxed);
  }
  {
    // Construction is single-threaded; the guard exists for the analysis
    // (free_frames_ is guarded_by free_lock_) and costs one uncontended
    // lock round-trip.
    SpinLockGuard guard(free_lock_);
    free_frames_.reserve(config_.num_frames);
    // Hand frames out in ascending order (pop_back takes the highest first;
    // order is irrelevant for correctness).
    for (size_t i = config_.num_frames; i-- > 0;) {
      free_frames_.push_back(static_cast<FrameId>(i));
    }
    free_hint_.store(free_frames_.size(), std::memory_order_relaxed);
  }
  coordinator_->BindFrameTags(frame_tags_.data(), frame_tags_.size());

  free_lock_.BindProfSite(BPW_PROF_SITE("pool.free_list"));

  metrics_source_ = obs::ScopedMetricSource(
      &obs::MetricsRegistry::Default(), [this](obs::MetricsSnapshot& snap) {
        snap.AddGauge("buffer.num_frames",
                      static_cast<double>(config_.num_frames));
        snap.AddGauge(
            "buffer.free_frames",
            static_cast<double>(free_hint_.load(std::memory_order_relaxed)));
        const PoolTotals totals = Totals();
        snap.Add("buffer.hits", static_cast<double>(totals.hits));
        snap.Add("buffer.misses", static_cast<double>(totals.misses));
        snap.Add("buffer.evictions", static_cast<double>(totals.evictions));
        snap.Add("buffer.writebacks", static_cast<double>(totals.writebacks));
        snap.Add("buffer.eviction_races",
                 static_cast<double>(totals.eviction_races));
      });
}

BufferPool::~BufferPool() = default;

std::unique_ptr<BufferPool::Session> BufferPool::CreateSession() {
  std::unique_ptr<Session> session(
      new Session(this, coordinator_->RegisterThread()));
  MutexGuard guard(sessions_mu_);
  // Bind to the least-loaded shard (the lowest index on a tie).
  uint32_t shard = 0;
  for (uint32_t s = 1; s < kPinShards; ++s) {
    if (shard_sessions_[s] < shard_sessions_[shard]) shard = s;
  }
  ++shard_sessions_[shard];
  session->pin_shard_ = shard;
  sessions_.push_back(session.get());
  return session;
}

BufferPool::Session::~Session() { pool_->RetireSession(this); }

void BufferPool::PoolTotals::Add(const SessionCounters& counters) {
  hits += counters.hits.value();
  misses += counters.misses.value();
  evictions += counters.evictions.value();
  writebacks += counters.writebacks.value();
  eviction_races += counters.eviction_races.value();
  writeback_failures += counters.writeback_failures.value();
}

BufferPool::PoolTotals BufferPool::Totals() const {
  MutexGuard guard(sessions_mu_);
  PoolTotals totals = retired_;
  for (const Session* session : sessions_) totals.Add(session->counters_);
  return totals;
}

void BufferPool::RetireSession(Session* session) {
  MutexGuard guard(sessions_mu_);
  retired_.Add(session->counters_);
  --shard_sessions_[session->pin_shard_];
  const auto it = std::find(sessions_.begin(), sessions_.end(), session);
  if (it != sessions_.end()) {
    *it = sessions_.back();
    sessions_.pop_back();
  }
}

bool BufferPool::TryPin(FrameId frame, PageId page, uint32_t shard) {
  FrameMeta& meta = frames_[frame];
  // Window between the table lookup and the pin: the frame can be evicted
  // and re-used for another page in here.
  BPW_SCHEDULE_POINT_OBJ("pool.try_pin", &meta.state);
  // Pin, then look for a claim. A claimer sets kBusy and then scans the
  // shards: each side's RMW precedes its load in the seq_cst order, so one
  // of them sees the other.
  std::atomic<uint32_t>& pins = PinCount(shard, frame);
  pins.fetch_add(1, std::memory_order_seq_cst);
  if (meta.state.load(std::memory_order_seq_cst) != 0) {
    // An evictor, drop or flush owns the frame: undo the pin. Reaching
    // zero may be what a back-pressure waiter is waiting for.
    if (pins.fetch_sub(1, std::memory_order_release) == 1) FrameMayBeFree();
    return false;
  }
  // Pinned, but the lookup may be stale: the frame can have been evicted
  // and re-used since. The pin stops any further eviction, so one tag
  // check settles it; on a mismatch the transient pin is dropped.
  BPW_SCHEDULE_POINT_OBJ("pool.pin_validate", &meta.state);
  if (FrameTag(frame) != page) {
    Unpin(frame, shard);
    return false;
  }
  return true;
}

void BufferPool::Unpin(FrameId frame, uint32_t shard) {
  BPW_SCHEDULE_POINT_OBJ("pool.unpin", &frames_[frame].state);
  // A shard reaching zero wakes waiters even if another shard still pins
  // the frame: a spare wake, and only while a waiter is registered.
  if (PinCount(shard, frame).fetch_sub(1, std::memory_order_release) == 1) {
    FrameMayBeFree();
  }
}

bool BufferPool::Pinned(FrameId frame) const {
  // seq_cst: TryClaim's scan must follow its claim CAS in the order every
  // pinner's add-then-load agrees on. On x86 these are plain loads.
  BPW_BOUNDED_BY(kPinShards);
  for (uint32_t shard = 0; shard < kPinShards; ++shard) {
    if (PinCount(shard, frame).load(std::memory_order_seq_cst) != 0) {
      return true;
    }
  }
  return false;
}

bool BufferPool::Claimable(FrameId frame) const {
  return frames_[frame].state.load(std::memory_order_acquire) == 0 &&
         !Pinned(frame);
}

bool BufferPool::TryClaim(FrameId frame, bool& owe_wake) {
  uint32_t idle = 0;
  if (!frames_[frame].state.compare_exchange_strong(
          idle, kBusy, std::memory_order_seq_cst,
          std::memory_order_relaxed)) {
    return false;
  }
  if (Pinned(frame)) {
    frames_[frame].state.fetch_and(~kBusy, std::memory_order_seq_cst);
    if (!Pinned(frame)) owe_wake = true;
    return false;
  }
  return true;
}

void BufferPool::ReleaseClaim(FrameId frame) {
  frames_[frame].state.fetch_and(~kBusy, std::memory_order_seq_cst);
  if (!Pinned(frame)) FrameMayBeFree();
}

bool BufferPool::ClaimVictim(FrameId frame, VictimSearch& search) {
  FrameMeta& meta = frames_[frame];
  const bool mutant = config_.test_skip_victim_revalidation;
  // The read-only pre-check: a frame visibly pinned or claimed costs no RMW
  // and counts no race. The mutant skips it.
  if (!mutant && !Claimable(frame)) return false;
  // A pin can land between the check and the CAS; the claim's shard scan
  // sees it then.
  BPW_SCHEDULE_POINT_OBJ("pool.evict_claim", &meta.state);
  if (mutant) {  // claims without looking at the pins
    uint32_t idle = 0;
    return meta.state.compare_exchange_strong(idle, kBusy,
                                              std::memory_order_seq_cst,
                                              std::memory_order_relaxed);
  }
  if (TryClaim(frame, search.owe_wake)) return true;
  search.session->counters_.eviction_races.Add(1);
  return false;
}

void BufferPool::PushFreeFrame(FrameId frame) {
  {
    SpinLockGuard guard(free_lock_);
    free_frames_.push_back(frame);
    free_hint_.store(free_frames_.size(), std::memory_order_relaxed);
  }
  FrameMayBeFree();
}

size_t BufferPool::pinned_frames() const {
  size_t pinned = 0;
  for (FrameId frame = 0; frame < frames_.size(); ++frame) {
    if (Pinned(frame)) ++pinned;
  }
  return pinned;
}

void BufferPool::NotifyFrameWaiters() {
  {
    MutexGuard lock(pending_mu_);
    signal_->epoch.fetch_add(1, std::memory_order_release);
  }
  WakePendingWaiters();
}

void BufferPool::WaitForFrame(uint64_t epoch) {
  MutexGuard lock(pending_mu_);
  const auto deadline = std::chrono::steady_clock::now() + kFrameWaitSlice;
  while (signal_->epoch.load(std::memory_order_acquire) == epoch) {
#if BPW_SCHEDULE_POINTS
    // The same cooperative bridge as WaitForLoad: under the model checker
    // the wait parks until NotifyFrameWaiters (no timeout; the checker
    // reports a missed notification as a deadlock). An aborted run unwinds
    // into FetchPage's retry loop.
    testing::ScheduleController* controller =
        testing::ScheduleController::Current();
    if (controller != nullptr && controller->PrepareWait(&pending_cv_)) {
      pending_mu_.unlock();
      const bool woke = controller->CommitWait(&pending_cv_);
      pending_mu_.lock();
      if (!woke) return;
      continue;
    }
#endif
    if (pending_cv_.wait_until(pending_mu_, deadline) ==
        std::cv_status::timeout) {
      return;
    }
  }
}

void BufferPool::WaitForLoad(PageId page) {
  // Register before the re-check below: a loader that ends the load after
  // the re-check then sees the registration and wakes us (the seq_cst pair
  // described at PageTable::PublishLoad).
  signal_->load_waiters.fetch_add(1, std::memory_order_seq_cst);
  {
    MutexGuard lock(pending_mu_);
    // Explicit wait loop (not the predicate overload): the predicate lambda
    // would be analyzed with an empty capability set even though the wait
    // machinery holds pending_mu_ around every evaluation.
    while (table_.Loading(page)) {
#if BPW_SCHEDULE_POINTS
      // Cooperative bridge for the model checker: a worker must not block
      // in the OS under a one-thread-at-a-time scheduler. PrepareWait
      // registers the wait while pending_mu_ is still held (so LoadEnded
      // cannot slip between the predicate check and registration);
      // CommitWait parks until a NotifyAll, or returns false when the
      // exploration aborts this execution — then we unwind and let
      // FetchPage's retry loop (which the scheduler also controls) notice
      // the abort.
      testing::ScheduleController* controller =
          testing::ScheduleController::Current();
      if (controller != nullptr && controller->PrepareWait(&pending_cv_)) {
        pending_mu_.unlock();
        const bool woke = controller->CommitWait(&pending_cv_);
        pending_mu_.lock();
        if (!woke) break;
        continue;
      }
#endif
      pending_cv_.wait(pending_mu_);
    }
  }
  signal_->load_waiters.fetch_sub(1, std::memory_order_relaxed);
}

void BufferPool::LoadEnded() {
  if (signal_->load_waiters.load(std::memory_order_seq_cst) == 0) return;
  {
    // Passing through pending_mu_ orders this wake after the predicate
    // check of any waiter that read the slot before the load ended: that
    // waiter holds the mutex until it is parked on pending_cv_.
    MutexGuard lock(pending_mu_);
  }
  WakePendingWaiters();
}

void BufferPool::WakePendingWaiters() {
  pending_cv_.notify_all();
#if BPW_SCHEDULE_POINTS
  // Wake cooperative waiters too (the real notify_all above only reaches
  // threads blocked in the OS).
  testing::ScheduleController* controller =
      testing::ScheduleController::Current();
  if (controller != nullptr) controller->NotifyAll(&pending_cv_);
#endif
}

FrameId BufferPool::AcquireFrame(Session& session, PageId incoming,
                                 int attempts) {
  // The policy claims its victim as it chooses it, under its lock: a frame
  // it returns is already ours (kBusy set, every shard at zero), so no pin
  // can land between the choice and the claim. The claim's shard scan
  // acquires Unpin's release decrements, so the previous holders' frame
  // accesses happen before our write-back or reuse of the frame bytes.
  VictimSearch search{&session};
  const Coordinator::EvictableFn claim(
      [this, &search](FrameId f) { return ClaimVictim(f, search); },
      [this](FrameId f) { return Claimable(f); });

  for (int attempt = 1;; ++attempt) {
    // Fast path: an unused frame. The list is empty in steady state, and
    // then the hint spares the miss the lock.
    if (free_hint_.load(std::memory_order_relaxed) != 0) {
      SpinLockGuard guard(free_lock_);
      if (!free_frames_.empty()) {
        const FrameId frame = free_frames_.back();
        free_frames_.pop_back();
        free_hint_.store(free_frames_.size(), std::memory_order_relaxed);
        return frame;
      }
    }

    BPW_PROF_PHASE("evict");
    BPW_SCHEDULE_POINT("pool.evict_select");
    auto victim_or =
        coordinator_->ChooseVictim(session.slot_.get(), claim, incoming);
    // Claims given back during the search wake waiters here, outside the
    // policy lock.
    if (search.owe_wake) {
      search.owe_wake = false;
      FrameMayBeFree();
    }
    if (!victim_or.ok()) {
      if (attempt >= attempts) return kInvalidFrameId;
      // Everything evictable was pinned at sweep time; give pin holders a
      // chance to release.
      BPW_SCHEDULE_YIELD("pool.evict_retry");
      continue;
    }
    const Coordinator::Victim victim = victim_or.value();
    FrameMeta& meta = frames_[victim.frame];
    // We hold the claim, so kBusy blocks new pins while we drain the frame.
    const bool dirty = meta.dirty.exchange(false, std::memory_order_relaxed);

    if (dirty) {
      // The mapping stays in the table during write-back: concurrent
      // fetches of the victim keep failing TryPin (kBusy) instead of
      // re-reading a stale version from storage mid-write.
      BPW_PROF_PHASE("writeback");
      BPW_SCHEDULE_POINT("pool.evict_writeback");
      Status status = storage_->WritePage(victim.page, FrameData(victim.frame));
      if (!status.ok()) {
        // Keep going: the frame is reused. The write is reported lost via
        // the counter (and one log line, not one per failure — fault
        // injection makes failures routine).
        session.counters_.writeback_failures.Add(1);
        if (!writeback_failure_logged_.exchange(true)) {
          BPW_LOG_ERROR << "write-back of page " << victim.page
                        << " failed: " << status.ToString()
                        << " (further failures counted, not logged)";
        }
      }
      session.counters_.writebacks.Add(1);
    }

    BPW_SCHEDULE_POINT("pool.evict_publish");
    table_.Erase(victim.page, victim.frame);
    frame_tags_[victim.frame].store(kInvalidPageId, std::memory_order_release);
    ReleaseClaim(victim.frame);
    session.counters_.evictions.Add(1);
    if (obs::TraceEnabled()) {
      obs::TraceEmit(obs::TraceEventKind::kEviction, NowNanos(), 0,
                     victim.page);
    }
    return victim.frame;
  }
}

StatusOr<PageHandle> BufferPool::FetchPage(Session& session, PageId page) {
  if (page >= storage_->num_pages()) {
    return Status::InvalidArgument("page id beyond storage");
  }
  // Registration as a back-pressure waiter, for the rest of this call once
  // taken: while registered, every release of a frame bumps the epoch.
  struct FrameWaiter {
    std::atomic<uint32_t>* count = nullptr;
    ~FrameWaiter() {
      if (count != nullptr) count->fetch_sub(1, std::memory_order_release);
    }
  } waiter;
  int frame_waits = 0;
  int full_pool_waits = 0;
  // Liveness bound: a mapped frame normally becomes pinnable as soon as its
  // evictor/loader finishes (micro- to milliseconds, so a handful of
  // yields). Orders of magnitude past that means the mapping is wedged —
  // the kind of state fault-injection and mutation testing deliberately
  // produce — and an error beats an unkillable spin loop.
  constexpr int kStuckSpinLimit = 1'000'000;
  for (int spin = 0;; ++spin) {
    if (spin > kStuckSpinLimit) {
      return Status::Internal("page " + std::to_string(page) +
                              " stuck: mapping never became pinnable");
    }
    BPW_SCHEDULE_POINT("pool.fetch_lookup");
    const FrameId frame = table_.Lookup(page);
    // Real frame ids sort below both sentinels.
    if (frame < PageTable::kLoadingFrameId) {
      if (TryPin(frame, page, session.pin_shard_)) {
        session.counters_.hits.Add(1);
        coordinator_->OnHit(session.slot_.get(), page, frame);
        return PageHandle(this, page, frame, session.pin_shard_,
                          FrameData(frame));
      }
      // Mapped but mid-eviction or re-used: let the evictor finish.
      BPW_SCHEDULE_YIELD("pool.fetch_busy_retry");
      continue;
    }
    if (frame == PageTable::kLoadingFrameId) {
      // Single-flight: another fetcher is loading this page.
      WaitForLoad(page);
      continue;
    }

    // Miss. Single-flight: claim the load in the table. The claim CAS is
    // also the re-check — it fails if the page was published or claimed
    // since the lookup, and the lookup is retried.
    if (!table_.TryClaimLoad(page)) continue;

    // Phase scope for the whole miss resolution; eviction, write-back and
    // the storage read nest under it in the contention report.
    BPW_PROF_PHASE("pool.miss");

    // A registered waiter samples the epoch before its attempt, so a frame
    // released after the attempt looked always ends the wait below.
    const bool registered = waiter.count != nullptr;
    const uint64_t epoch =
        registered ? signal_->epoch.load(std::memory_order_acquire) : 0;
    const FrameId new_frame = AcquireFrame(
        session, page, registered ? 1 : config_.eviction_retries + 1);
    if (new_frame == kInvalidFrameId) {
      table_.AbortLoad(page);
      LoadEnded();
      // Nothing evictable: back-pressure, not an error. Frames are pinned
      // by live handles or in flight (mid-eviction, mid-load, just detached
      // by another evictor), and one will come free. Only a pool whose
      // every frame stays pinned is exhausted.
      full_pool_waits =
          pinned_frames() == frames_.size() ? full_pool_waits + 1 : 0;
      if (full_pool_waits > kFullPoolWaits) {
        return Status::ResourceExhausted("buffer pool: every frame is pinned");
      }
      if (!registered) {
        // Register, then retry once before waiting, so that an unpin
        // between the failed attempts and the registration is not missed.
        waiter.count = &signal_->frame_waiters;
        waiter.count->fetch_add(1, std::memory_order_seq_cst);
        continue;
      }
      if (++frame_waits > kMaxFrameWaits) {
        return Status::Internal("buffer pool: no frame became evictable");
      }
      WaitForFrame(epoch);
      continue;
    }

    BPW_SCHEDULE_POINT("pool.miss_read");
    Status status = [&] {
      BPW_PROF_PHASE("io_read");
      return storage_->ReadPage(page, FrameData(new_frame));
    }();
    if (!status.ok()) {
      PushFreeFrame(new_frame);
      table_.AbortLoad(page);
      LoadEnded();
      return status;
    }

    // Publish: pin first (on the loader's shard), then the tag, then the
    // table mapping, then the policy. The pin is a fetch_add, not a store: a
    // stale pinner of the same shard may hold a transient pin on this free
    // frame, and its unpin must not cancel ours. Pinning before the tag
    // store means whoever sees the new tag (a DropPage holding a stale
    // lookup) also sees the pin.
    BPW_SCHEDULE_POINT("pool.fetch_publish");
    frames_[new_frame].dirty.store(false, std::memory_order_relaxed);
    std::atomic<uint32_t>& pins = PinCount(session.pin_shard_, new_frame);
    BPW_RELAXED_OK("the tag's release store below publishes this pin");
    pins.fetch_add(1, std::memory_order_relaxed);
    frame_tags_[new_frame].store(page, std::memory_order_release);
    table_.PublishLoad(page, new_frame);
    coordinator_->CompleteMiss(session.slot_.get(), page, new_frame);
    session.counters_.misses.Add(1);
    LoadEnded();
    return PageHandle(this, page, new_frame, session.pin_shard_,
                      FrameData(new_frame));
  }
}

Status BufferPool::DropPage(Session& session, PageId page) {
  if (page >= storage_->num_pages()) {
    return Status::InvalidArgument("page id beyond storage");
  }
  BPW_SCHEDULE_POINT("pool.drop");
  const FrameId frame = table_.Lookup(page);
  if (frame == kInvalidFrameId) {
    return Status::NotFound("page not buffered");
  }
  if (frame == PageTable::kLoadingFrameId) {
    return Status::FailedPrecondition("page is mid-load");
  }
  FrameMeta& meta = frames_[frame];
  bool owe_wake = false;
  if (!TryClaim(frame, owe_wake)) {
    if (owe_wake) FrameMayBeFree();
    return Status::FailedPrecondition(
        meta.state.load(std::memory_order_relaxed) != 0 ? "page is mid-I/O"
                                                        : "page is pinned");
  }
  if (FrameTag(frame) != page) {
    ReleaseClaim(frame);
    return Status::NotFound("page left the buffer concurrently");
  }
  // The lookup can be stale and the frame re-loaded with this same page
  // since: its loader pins its shard without checking kBusy, before storing
  // the tag we just read, so its pin is visible here.
  if (Pinned(frame)) {
    ReleaseClaim(frame);
    return Status::FailedPrecondition("page is pinned");
  }

  // The page is still registered: an evictor claims its frame before the
  // policy detaches the page and holds the claim until the unmap, and we
  // hold the claim now.
  BPW_SCHEDULE_POINT("pool.drop_erase");
  coordinator_->OnErase(session.slot_.get(), page, frame);

  table_.Erase(page, frame);
  frame_tags_[frame].store(kInvalidPageId, std::memory_order_release);
  meta.dirty.store(false, std::memory_order_relaxed);
  ReleaseClaim(frame);
  PushFreeFrame(frame);
  return Status::OK();
}

Status BufferPool::FlushAll() {
  // Error audit: a failed write must leave the page dirty (so a retry can
  // still flush it) and must not stop the sweep — every flushable page gets
  // its chance, and the first error is reported to the caller.
  Status first_error;
  uint64_t writebacks = 0;
  for (FrameId frame = 0; frame < frames_.size(); ++frame) {
    FrameMeta& meta = frames_[frame];
    // Claim the frame but keep its pins: a pinned dirty page is flushed
    // too. A frame already busy belongs to an evictor or a drop.
    if ((meta.state.fetch_or(kBusy, std::memory_order_acquire) & kBusy) !=
        0) {
      continue;
    }
    const PageId page = FrameTag(frame);
    if (page == kInvalidPageId ||
        !meta.dirty.exchange(false, std::memory_order_relaxed)) {
      ReleaseClaim(frame);
      continue;
    }

    Status status = storage_->WritePage(page, FrameData(frame));
    ++writebacks;
    if (!status.ok()) {
      // Restore dirtiness: the storage write did not happen.
      meta.dirty.store(true, std::memory_order_relaxed);
      if (first_error.ok()) first_error = status;
    }
    ReleaseClaim(frame);
  }
  // FlushAll runs outside any session; its write-backs count as retired.
  MutexGuard guard(sessions_mu_);
  retired_.writebacks += writebacks;
  return first_error;
}

void BufferPool::FlushSession(Session& session) {
  coordinator_->FlushSlot(session.slot_.get());
}

Status BufferPool::Prewarm(Session& session, PageId first_page,
                           uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    auto handle = FetchPage(session, first_page + i);
    if (!handle.ok()) return handle.status();
  }
  return Status::OK();
}

uint64_t BufferPool::StateFingerprint() const {
  // Quiesced-by-contract, like CheckIntegrity: the model checker only calls
  // this while every worker is parked at a schedule point, so the lock-free
  // reads below cannot race. Everything hashed is logical state (ids, flags,
  // counts) — never addresses — so the same logical state reached by two
  // different executions produces the same fingerprint.
  Fingerprint fp;
  fp.Combine(frames_.size());
  for (FrameId frame = 0; frame < frames_.size(); ++frame) {
    const FrameMeta& meta = frames_[frame];
    fp.Combine(FrameTag(frame));
    BPW_BOUNDED_BY(kPinShards);
    for (uint32_t shard = 0; shard < kPinShards; ++shard) {
      BPW_RELAXED_OK("quiesced read, like the rest of the fingerprint");
      fp.Combine(PinCount(shard, frame).load(std::memory_order_relaxed));
    }
    fp.Combine(meta.dirty.load(std::memory_order_relaxed) ? 1 : 0);
    fp.Combine(meta.state.load(std::memory_order_relaxed) != 0 ? 1 : 0);
  }
  // The free list is a stack, so its order is part of the state (it decides
  // which frame the next miss takes).
  for (const FrameId frame : free_frames_) fp.Combine(frame);
  for (PageId page = 0; page < table_.num_pages(); ++page) {
    if (table_.Lookup(page) == PageTable::kLoadingFrameId) fp.Combine(page);
  }
  fp.Combine(signal_->frame_waiters.load(std::memory_order_relaxed));
  fp.Combine(signal_->load_waiters.load(std::memory_order_relaxed));
  return fp.value();
}

Status BufferPool::CheckIntegrity() {
  // Quiesced-only check: no concurrent traffic allowed.
  size_t mapped = 0;
  for (FrameId frame = 0; frame < frames_.size(); ++frame) {
    if (Pinned(frame)) {
      return Status::Corruption("quiesced frame still pinned");
    }
    if (frames_[frame].state.load(std::memory_order_acquire) != 0) {
      return Status::Corruption("quiesced frame still marked io-busy");
    }
    const PageId page = FrameTag(frame);
    if (page == kInvalidPageId) continue;
    ++mapped;
    if (table_.Lookup(page) != frame) {
      return Status::Corruption("frame tag not reflected in page table");
    }
  }
  if (mapped != table_.size()) {
    return Status::Corruption("page table size disagrees with frame tags");
  }
  if (table_.loading() != 0) {
    return Status::Corruption("quiesced page table still holds a load");
  }
  std::vector<FrameId> free_frames;
  {
    SpinLockGuard guard(free_lock_);
    free_frames = free_frames_;
  }
  std::unordered_set<FrameId> free_set(free_frames.begin(),
                                       free_frames.end());
  if (free_set.size() != free_frames.size()) {
    return Status::Corruption("duplicate frame on the free list");
  }
  for (const FrameId frame : free_frames) {
    if (frame >= frames_.size() || FrameTag(frame) != kInvalidPageId) {
      return Status::Corruption("free-list frame still carries a page tag");
    }
  }
  if (mapped + free_frames.size() != config_.num_frames) {
    return Status::Corruption("mapped + free != total frames");
  }
  // Coordinator-internal conservation checks first: a coordinator with
  // internal hand-off state reports its own, more specific diagnosis before
  // the generic resident-count compare below.
  Status coord_status = coordinator_->CheckQuiescedInvariants();
  if (!coord_status.ok()) return coord_status;
  // Quiesced by contract (no concurrent traffic), so this thread has
  // exclusive access to the policy without taking the coordinator's lock.
  const ReplacementPolicy& policy = coordinator_->policy();
  policy.AssertExclusiveAccess();
  if (policy.resident_count() != mapped) {
    return Status::Corruption("policy resident count disagrees with pool");
  }
  return policy.CheckInvariants();
}

}  // namespace bpw
