#include "core/shared_queue_coordinator.h"

#include <algorithm>

#include "obs/contention_profiler.h"
#include "testing/schedule_point.h"
#include "util/fingerprint.h"

namespace bpw {

SharedQueueCoordinator::SharedQueueCoordinator(
    std::unique_ptr<ReplacementPolicy> policy, Options options)
    : policy_(std::move(policy)),
      options_(options),
      lock_(options.instrumentation),
      metrics_source_(&obs::MetricsRegistry::Default(),
                      [this](obs::MetricsSnapshot& snap) {
                        AppendLockMetrics(snap, lock_.stats());
                        snap.Add("coord.queue_lock_acquisitions",
                                 static_cast<double>(
                                     queue_lock_acquisitions()));
                      }) {
  if (options_.queue_size == 0) options_.queue_size = 1;
  options_.batch_threshold =
      std::clamp<size_t>(options_.batch_threshold, 1, options_.queue_size);
  queue_.reserve(options_.queue_size);
  // The queue lock is this design's indictment: the profiler shows its
  // per-hit acquisitions next to the policy lock's batched ones.
  lock_.BindProfSite(BPW_PROF_SITE("shared_queue.policy_lock"));
  queue_lock_.BindProfSite(BPW_PROF_SITE("shared_queue.queue_lock"));
}

std::unique_ptr<Coordinator::ThreadSlot>
SharedQueueCoordinator::RegisterThread() {
  return std::make_unique<Slot>();
}

void SharedQueueCoordinator::CommitLocked() {
  // REQUIRES(lock_): the policy lock is what serializes policy access.
  policy_->AssertExclusiveAccess();
  BPW_PROF_PHASE("commit");
  // Swap the shared buffer out under the queue lock, replay outside it
  // (but under the policy lock held by the caller). The member scratch
  // buffer and the queue ping-pong their allocations: after the first few
  // commits no memory is ever allocated while the lock is held (the naive
  // version reserved a fresh vector here every commit, which bpw_check's
  // hold-alloc rule now rejects).
  batch_.clear();
  {
    BPW_PROF_PHASE("queue_drain");
    SpinLockGuard queue_guard(queue_lock_);
    BPW_MC_ACCESS_WRITE("shared_queue.queue", &queue_);
    batch_.swap(queue_);
  }
  {
    BPW_PROF_PHASE("replay");
    for (const AccessQueue::Entry& entry : batch_) {
      if (TagStillValid(entry.page, entry.frame)) {
        policy_->OnHit(entry.page, entry.frame);
      }
    }
  }
}

void SharedQueueCoordinator::CommitRacy() {
  // Same body as CommitLocked, minus the precondition that lock_ is held.
  // The policy's AssertExclusiveAccess fires inside with no ordering lock,
  // which is exactly the race the certifier must report.
  policy_->AssertExclusiveAccess();
  batch_.clear();
  {
    SpinLockGuard queue_guard(queue_lock_);
    BPW_MC_ACCESS_WRITE("shared_queue.queue", &queue_);
    batch_.swap(queue_);
  }
  for (const AccessQueue::Entry& entry : batch_) {
    if (TagStillValid(entry.page, entry.frame)) {
      policy_->OnHit(entry.page, entry.frame);
    }
  }
}

void SharedQueueCoordinator::OnHit(ThreadSlot* /*slot*/, PageId page,
                                   FrameId frame) {
  // The design flaw the paper called out: every hit synchronizes on the
  // shared queue (and its cache line bounces between processors).
  BPW_SCHEDULE_POINT("shared_queue.record");
  size_t size_after;
  {
    SpinLockGuard queue_guard(queue_lock_);
    BPW_MC_ACCESS_WRITE("shared_queue.queue", &queue_);
    queue_.push_back(AccessQueue::Entry{page, frame});
    size_after = queue_.size();
  }
  queue_acquisitions_.fetch_add(1, std::memory_order_relaxed);

  if (size_after < options_.batch_threshold) return;
  if (options_.test_commit_without_lock) {
    CommitRacy();
    return;
  }
  if (lock_.TryLock()) {
    ContentionLockAdoptGuard guard(lock_);
    CommitLocked();
    return;
  }
  if (size_after < options_.queue_size) return;
  ContentionLockGuard guard(lock_);
  CommitLocked();
}

StatusOr<Coordinator::Victim> SharedQueueCoordinator::ChooseVictim(
    ThreadSlot* /*slot*/, const EvictableFn& evictable, PageId incoming) {
  ContentionLockGuard guard(lock_);
  policy_->AssertExclusiveAccess();
  CommitLocked();
  return policy_->ChooseVictim(evictable, incoming);
}

void SharedQueueCoordinator::CompleteMiss(ThreadSlot* /*slot*/, PageId page,
                                          FrameId frame) {
  ContentionLockGuard guard(lock_);
  policy_->AssertExclusiveAccess();
  CommitLocked();
  policy_->OnMiss(page, frame);
}

bool SharedQueueCoordinator::OnErase(ThreadSlot* /*slot*/, PageId page,
                                     FrameId frame) {
  ContentionLockGuard guard(lock_);
  policy_->AssertExclusiveAccess();
  CommitLocked();
  const bool resident = policy_->IsResident(page);
  if (resident) policy_->OnErase(page, frame);
  return resident;
}

uint64_t SharedQueueCoordinator::StateFingerprint() const {
  // Quiesced-by-contract (model-checker use only: every worker parked).
  // Uncommitted queue entries are state — they decide which OnHit replays
  // the next commit performs — as is the policy's own bookkeeping.
  Fingerprint fp;
  for (const AccessQueue::Entry& entry : queue_) {
    fp.Combine(entry.page);
    fp.Combine(entry.frame);
  }
  fp.Combine(policy_->StateFingerprint());
  return fp.value();
}

void SharedQueueCoordinator::FlushSlot(ThreadSlot* /*slot*/) {
  bool empty;
  {
    SpinLockGuard queue_guard(queue_lock_);
    empty = queue_.empty();
  }
  if (empty) return;
  ContentionLockGuard guard(lock_);
  CommitLocked();
}

}  // namespace bpw
