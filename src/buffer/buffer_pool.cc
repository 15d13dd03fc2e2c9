#include "buffer/buffer_pool.h"

#include <chrono>
#include <thread>

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

}  // namespace

// ---------------------------------------------------------------- PageHandle

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    page_ = other.page_;
    frame_ = other.frame_;
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
    pool_->Unpin(frame_, /*mark_dirty=*/false);
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
      buffer_(config.num_frames * config.page_size),
      frames_(config.num_frames),
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
  }
  coordinator_->BindFrameTags(frame_tags_.data(), frame_tags_.size());

  free_lock_.BindProfSite(BPW_PROF_SITE("pool.free_list"));

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  metric_hits_ = registry.GetCounter("buffer.hits");
  metric_misses_ = registry.GetCounter("buffer.misses");
  metric_evictions_ = registry.GetCounter("buffer.evictions");
  metric_writebacks_ = registry.GetCounter("buffer.writebacks");
  metrics_source_ = obs::ScopedMetricSource(
      &registry, [this](obs::MetricsSnapshot& snap) {
        snap.AddGauge("buffer.num_frames",
                      static_cast<double>(config_.num_frames));
        size_t free_count = 0;
        {
          SpinLockGuard guard(free_lock_);
          free_count = free_frames_.size();
        }
        snap.AddGauge("buffer.free_frames", static_cast<double>(free_count));
        snap.Add("buffer.eviction_races",
                 static_cast<double>(eviction_races()));
      });
}

BufferPool::~BufferPool() = default;

std::unique_ptr<BufferPool::Session> BufferPool::CreateSession() {
  return std::unique_ptr<Session>(
      new Session(coordinator_->RegisterThread()));
}

bool BufferPool::TryPin(FrameId frame, PageId page) {
  FrameMeta& meta = frames_[frame];
  // Window between the table lookup and the pin: the frame can be evicted
  // and re-used for another page in here.
  BPW_SCHEDULE_POINT_OBJ("pool.try_pin", &meta.state);
  uint32_t state = meta.state.load(std::memory_order_relaxed);
  // Each failed CAS means another pinner or the claimer changed the word.
  BPW_BOUNDED_BY(concurrent_pinners);
  while (true) {
    if ((state & kBusy) != 0) return false;
    if (meta.state.compare_exchange_weak(state, state + 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      break;
    }
  }
  // Pinned, but the lookup may be stale: the frame can have been evicted
  // and re-used since. The pin stops any further eviction, so one tag
  // check settles it; on a mismatch the transient pin is dropped.
  BPW_SCHEDULE_POINT_OBJ("pool.pin_validate", &meta.state);
  if (FrameTag(frame) != page) {
    Unpin(frame, /*mark_dirty=*/false);
    return false;
  }
  return true;
}

void BufferPool::Unpin(FrameId frame, bool mark_dirty) {
  FrameMeta& meta = frames_[frame];
  BPW_SCHEDULE_POINT_OBJ("pool.unpin", &meta.state);
  if (mark_dirty) {
    meta.dirty.store(true, std::memory_order_release);
  }
  if (meta.state.fetch_sub(1, std::memory_order_release) == 1) {
    FrameMayBeFree();
  }
}

bool BufferPool::TryClaim(FrameId frame) {
  uint32_t idle = 0;
  return frames_[frame].state.compare_exchange_strong(
      idle, kBusy, std::memory_order_acquire, std::memory_order_relaxed);
}

void BufferPool::ReleaseClaim(FrameId frame) {
  const uint32_t before =
      frames_[frame].state.fetch_and(~kBusy, std::memory_order_release);
  if ((before & kPinMask) == 0) FrameMayBeFree();
}

void BufferPool::PushFreeFrame(FrameId frame) {
  {
    SpinLockGuard guard(free_lock_);
    free_frames_.push_back(frame);
  }
  FrameMayBeFree();
}

size_t BufferPool::pinned_frames() const {
  size_t pinned = 0;
  for (const FrameMeta& meta : frames_) {
    if ((meta.state.load(std::memory_order_relaxed) & kPinMask) != 0) {
      ++pinned;
    }
  }
  return pinned;
}

void BufferPool::NotifyFrameWaiters() {
  {
    MutexGuard lock(pending_mu_);
    frame_signal_->epoch.fetch_add(1, std::memory_order_release);
  }
  WakePendingWaiters();
}

void BufferPool::WaitForFrame(uint64_t epoch) {
  MutexGuard lock(pending_mu_);
  const auto deadline = std::chrono::steady_clock::now() + kFrameWaitSlice;
  while (frame_signal_->epoch.load(std::memory_order_acquire) == epoch) {
#if BPW_SCHEDULE_POINTS
    // The same cooperative bridge as BeginLoad: under the model checker the
    // wait parks until NotifyFrameWaiters (no timeout; the checker reports
    // a missed notification as a deadlock). An aborted run unwinds into
    // FetchPage's retry loop.
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

bool BufferPool::BeginLoad(PageId page) {
  MutexGuard lock(pending_mu_);
  if (!pending_loads_.contains(page)) {
    pending_loads_.insert(page);
    return true;
  }
  // Explicit wait loop (not the predicate overload): the predicate lambda
  // would be analyzed with an empty capability set even though the wait
  // machinery holds pending_mu_ around every evaluation.
  while (pending_loads_.contains(page)) {
#if BPW_SCHEDULE_POINTS
    // Cooperative bridge for the model checker: a worker must not block in
    // the OS under a one-thread-at-a-time scheduler. PrepareWait registers
    // the wait while pending_mu_ is still held (so FinishLoad cannot slip
    // between the predicate check and registration); CommitWait parks until
    // a NotifyAll, or returns false when the exploration aborts this
    // execution — then we unwind as "someone else loaded it" and let
    // FetchPage's retry loop (which the scheduler also controls) notice the
    // abort.
    testing::ScheduleController* controller =
        testing::ScheduleController::Current();
    if (controller != nullptr && controller->PrepareWait(&pending_cv_)) {
      pending_mu_.unlock();
      const bool woke = controller->CommitWait(&pending_cv_);
      pending_mu_.lock();
      if (!woke) return false;
      continue;
    }
#endif
    pending_cv_.wait(pending_mu_);
  }
  return false;
}

void BufferPool::FinishLoad(PageId page) {
  {
    MutexGuard lock(pending_mu_);
    pending_loads_.erase(page);
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
  // The state load is acquire to pair with Unpin's release decrement:
  // observing 0 must order the previous holder's frame accesses before our
  // write-back / reuse of the frame bytes.
  const Coordinator::EvictableFn evictable = [this](FrameId f) {
    return frames_[f].state.load(std::memory_order_acquire) == 0;
  };

  for (int attempt = 1;; ++attempt) {
    // Fast path: an unused frame.
    {
      SpinLockGuard guard(free_lock_);
      if (!free_frames_.empty()) {
        const FrameId frame = free_frames_.back();
        free_frames_.pop_back();
        return frame;
      }
    }

    BPW_PROF_PHASE("evict");
    BPW_SCHEDULE_POINT("pool.evict_select");
    auto victim_or = coordinator_->ChooseVictim(session.slot_.get(),
                                                evictable, incoming);
    if (!victim_or.ok()) {
      if (attempt >= attempts) return kInvalidFrameId;
      // Everything evictable was pinned at sweep time; give pin holders a
      // chance to release.
      BPW_SCHEDULE_YIELD("pool.evict_retry");
      continue;
    }
    const Coordinator::Victim victim = victim_or.value();
    FrameMeta& meta = frames_[victim.frame];

    // The classic race window: between the policy detaching the victim and
    // our claim CAS, another thread can pin it. The claim fails then, and
    // once it succeeds no new pin can land (TryPin refuses kBusy).
    BPW_SCHEDULE_POINT_OBJ("pool.evict_claim", &meta.state);
    bool claimed = true;
    if (config_.test_skip_victim_revalidation) {
      meta.state.fetch_or(kBusy, std::memory_order_acquire);
    } else if (!TryClaim(victim.frame)) {
      claimed = false;
    } else if (FrameTag(victim.frame) != victim.page) {
      ReleaseClaim(victim.frame);
      claimed = false;
    }
    if (!claimed) {
      eviction_races_.fetch_add(1, std::memory_order_relaxed);
      // The policy already detached the page but someone pinned it between
      // selection and the claim. Re-register it so policy and pool agree,
      // then retry.
      if (FrameTag(victim.frame) == victim.page) {
        coordinator_->CompleteMiss(session.slot_.get(), victim.page,
                                   victim.frame);
      }
      if (attempt >= attempts) return kInvalidFrameId;
      // Let the racing pinner (or an aborting drop) release the frame
      // before burning another attempt.
      BPW_SCHEDULE_YIELD("pool.evict_race_retry");
      continue;
    }
    // kBusy blocks new pins while we drain the frame.
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
        writeback_failures_.fetch_add(1, std::memory_order_relaxed);
        if (!writeback_failure_logged_.exchange(true)) {
          BPW_LOG_ERROR << "write-back of page " << victim.page
                        << " failed: " << status.ToString()
                        << " (further failures counted, not logged)";
        }
      }
      writebacks_.fetch_add(1, std::memory_order_relaxed);
      BPW_METRIC_ADD(metric_writebacks_, 1);
    }

    BPW_SCHEDULE_POINT("pool.evict_publish");
    table_.Erase(victim.page, victim.frame);
    frame_tags_[victim.frame].store(kInvalidPageId, std::memory_order_release);
    ReleaseClaim(victim.frame);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    BPW_METRIC_ADD(metric_evictions_, 1);
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
    if (frame != kInvalidFrameId) {
      if (TryPin(frame, page)) {
        ++session.stats_.hits;
        BPW_METRIC_ADD(metric_hits_, 1);
        coordinator_->OnHit(session.slot_.get(), page, frame);
        return PageHandle(this, page, frame, FrameData(frame));
      }
      // Mapped but mid-eviction or re-used: let the evictor finish.
      BPW_SCHEDULE_YIELD("pool.fetch_busy_retry");
      continue;
    }

    // Miss. Single-flight: only one thread loads a given page.
    if (!BeginLoad(page)) continue;  // someone else loaded it; retry lookup

    // Phase scope for the whole miss resolution; eviction, write-back and
    // the storage read nest under it in the contention report.
    BPW_PROF_PHASE("pool.miss");

    // Re-check under load ownership (the page may have been published
    // between the lookup and BeginLoad).
    if (table_.Lookup(page) != kInvalidFrameId) {
      FinishLoad(page);
      continue;
    }

    // A registered waiter samples the epoch before its attempt, so a frame
    // released after the attempt looked always ends the wait below.
    const bool registered = waiter.count != nullptr;
    const uint64_t epoch =
        registered ? frame_signal_->epoch.load(std::memory_order_acquire) : 0;
    const FrameId new_frame = AcquireFrame(
        session, page, registered ? 1 : config_.eviction_retries + 1);
    if (new_frame == kInvalidFrameId) {
      FinishLoad(page);
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
        waiter.count = &frame_signal_->waiters;
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
      FinishLoad(page);
      return status;
    }

    // Publish: pin first, then the tag, then the table mapping, then the
    // policy. The pin is a fetch_add, not a store: a stale pinner may hold
    // a transient pin on this free frame, and its unpin must not cancel
    // ours. Pinning before the tag store means whoever sees the new tag
    // (a DropPage holding a stale lookup) also sees the pin.
    BPW_SCHEDULE_POINT("pool.fetch_publish");
    FrameMeta& meta = frames_[new_frame];
    meta.dirty.store(false, std::memory_order_relaxed);
    meta.state.fetch_add(1, std::memory_order_relaxed);
    frame_tags_[new_frame].store(page, std::memory_order_release);

    if (!table_.Insert(page, new_frame)) {
      // Impossible under single-flight; fail loudly in debug builds.
      BPW_LOG_ERROR << "duplicate mapping for page " << page;
    }
    coordinator_->CompleteMiss(session.slot_.get(), page, new_frame);
    ++session.stats_.misses;
    BPW_METRIC_ADD(metric_misses_, 1);
    FinishLoad(page);
    return PageHandle(this, page, new_frame, FrameData(new_frame));
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
  FrameMeta& meta = frames_[frame];
  if (!TryClaim(frame)) {
    return Status::FailedPrecondition(
        (meta.state.load(std::memory_order_relaxed) & kBusy) != 0
            ? "page is mid-I/O"
            : "page is pinned");
  }
  if (FrameTag(frame) != page) {
    ReleaseClaim(frame);
    return Status::NotFound("page left the buffer concurrently");
  }
  // The lookup can be stale and the frame re-loaded with this same page
  // since: its loader pins without checking kBusy, before storing the tag
  // we just read, so its pin is visible here.
  if ((meta.state.load(std::memory_order_acquire) & kPinMask) != 0) {
    ReleaseClaim(frame);
    return Status::FailedPrecondition("page is pinned");
  }

  // The policy erase is the commit point, and it must come first: OnErase is
  // a test-and-erase, and a `false` answer means an evictor already detached
  // this page via ChooseVictim and is on its way to the frame. Dropping the
  // mapping anyway would let the page be reloaded while that evictor still
  // holds a stale (page, frame) claim — it would then evict the fresh copy
  // behind the policy's back or re-register a duplicate (ABA). Back off and
  // let the eviction win; the caller sees the same "try again" status as for
  // a pinned page.
  BPW_SCHEDULE_POINT("pool.drop_erase");
  if (!coordinator_->OnErase(session.slot_.get(), page, frame)) {
    ReleaseClaim(frame);
    return Status::FailedPrecondition("page is being evicted");
  }

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
    writebacks_.fetch_add(1, std::memory_order_relaxed);
    if (!status.ok()) {
      // Restore dirtiness: the storage write did not happen.
      meta.dirty.store(true, std::memory_order_relaxed);
      if (first_error.ok()) first_error = status;
    }
    ReleaseClaim(frame);
  }
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
    const uint32_t state = meta.state.load(std::memory_order_acquire);
    fp.Combine(FrameTag(frame));
    fp.Combine(state & kPinMask);
    fp.Combine(meta.dirty.load(std::memory_order_relaxed) ? 1 : 0);
    fp.Combine((state & kBusy) != 0 ? 1 : 0);
  }
  // The free list is a stack, so its order is part of the state (it decides
  // which frame the next miss takes).
  for (const FrameId frame : free_frames_) fp.Combine(frame);
  for (const PageId page : pending_loads_) fp.CombineUnordered(page);
  return fp.value();
}

Status BufferPool::CheckIntegrity() {
  // Quiesced-only check: no concurrent traffic allowed.
  size_t mapped = 0;
  for (FrameId frame = 0; frame < frames_.size(); ++frame) {
    const uint32_t state = frames_[frame].state.load(std::memory_order_acquire);
    if ((state & kPinMask) != 0) {
      return Status::Corruption("quiesced frame still pinned");
    }
    if ((state & kBusy) != 0) {
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
