#include "core/bp_wrapper.h"

#include <cassert>

#include "obs/contention_profiler.h"
#include "obs/trace_recorder.h"
#include "sync/prefetch.h"
#include "testing/schedule_point.h"
#include "util/clock.h"
#include "util/fingerprint.h"
#include "util/logging.h"

namespace bpw {

BpWrapperCoordinator::BpWrapperCoordinator(
    std::unique_ptr<ReplacementPolicy> policy, Options options)
    : policy_(std::move(policy)),
      options_(options),
      lock_(options.instrumentation),
      metrics_source_(&obs::MetricsRegistry::Default(),
                      [this](obs::MetricsSnapshot& snap) {
                        AppendLockMetrics(snap, lock_.stats());
                        const CommitTotals totals = Totals();
                        snap.Add("coord.commit_batches",
                                 static_cast<double>(totals.commit_batches));
                        snap.Add("coord.committed_entries",
                                 static_cast<double>(totals.committed_entries));
                        snap.Add("coord.stale_commits",
                                 static_cast<double>(totals.stale_commits));
                        snap.Add("coord.lock_fallbacks",
                                 static_cast<double>(totals.lock_fallbacks));
                      }) {
  if (options_.queue_size == 0) options_.queue_size = 1;
  if (options_.batch_threshold == 0) options_.batch_threshold = 1;
  if (options_.batch_threshold > options_.queue_size) {
    options_.batch_threshold = options_.queue_size;
  }
  lock_.BindProfSite(BPW_PROF_SITE("bpw.policy_lock"));
}

BpWrapperCoordinator::~BpWrapperCoordinator() {
  MutexGuard guard(slots_mu_);
  if (!slots_.empty()) {
    BPW_LOG_ERROR << "BpWrapperCoordinator destroyed with " << slots_.size()
                  << " live thread slots";
  }
}

BpWrapperCoordinator::Slot::~Slot() {
  // Commit any still-queued accesses before the slot goes away.
  owner_->FlushSlot(this);
  MutexGuard guard(owner_->slots_mu_);
  owner_->retired_.Add(counters);
  owner_->slots_.erase(this);
}

void BpWrapperCoordinator::CommitTotals::Add(const SlotCounters& counters) {
  commit_batches += counters.commit_batches.value();
  committed_entries += counters.committed_entries.value();
  stale_commits += counters.stale_commits.value();
  lock_fallbacks += counters.lock_fallbacks.value();
}

BpWrapperCoordinator::CommitTotals BpWrapperCoordinator::Totals() const {
  MutexGuard guard(slots_mu_);
  CommitTotals totals = retired_;
  for (const Slot* slot : slots_) totals.Add(slot->counters);
  return totals;
}

std::unique_ptr<Coordinator::ThreadSlot>
BpWrapperCoordinator::RegisterThread() {
  auto slot = std::make_unique<Slot>(this, options_.queue_size);
  MutexGuard guard(slots_mu_);
  slots_.insert(slot.get());
  return slot;
}

void BpWrapperCoordinator::PrefetchForCommit(const Slot* slot) const {
  // Lock word first (needed soonest), then the policy nodes of everything
  // this thread will replay. All reads; cannot corrupt shared state
  // (§III-B).
  PrefetchWrite(&lock_);
  const AccessQueue& queue = slot->queue;
  for (size_t i = 0; i < queue.size(); ++i) {
    policy_->PrefetchHint(queue[i].frame);
  }
}

void BpWrapperCoordinator::DrainOwnLocked(Slot* slot, DrainOutcome& out) {
  AccessQueue& queue = slot->queue;
  if (queue.empty()) return;
  policy_->AssertExclusiveAccess();
  uint64_t stale = 0;
  const size_t n = queue.size();
  for (size_t i = 0; i < n; ++i) {
    const AccessQueue::Entry& entry = queue[i];
    // §IV-B: skip entries whose buffer page was invalidated or replaced
    // between recording and this commit.
    if (!TagStillValid(entry.page, entry.frame)) {
      ++stale;
      continue;
    }
    policy_->OnHit(entry.page, entry.frame);
  }
  queue.Clear();
  out.batches += 1;
  out.entries += n - stale;
  out.stale += stale;
}

void BpWrapperCoordinator::CommitAndRelease(Slot* slot) {
  // Clock reads under the lock are normally forbidden; the trace stamp in
  // DrainOutcome's construction sits before the apply phase below, and it
  // only runs when tracing is on — the span being measured *is* the locked
  // apply.
  DrainOutcome out;
  {
    // Apply phase: the critical section contains policy updates and
    // nothing else.
    BPW_PROF_PHASE("commit");
    policy_->AssertExclusiveAccess();
    DrainOwnLocked(slot, out);
  }
  lock_.Unlock();
  // ---- early release: everything below runs outside the critical section.
  BPW_SCHEDULE_POINT("bpw.post_commit");
  PostCommitBookkeeping(slot, out);
}

void BpWrapperCoordinator::PostCommitBookkeeping(Slot* slot,
                                                 const DrainOutcome& out) {
  if (out.batches == 0) return;
  slot->counters.commit_batches.Add(out.batches);
  slot->counters.committed_entries.Add(out.entries);
  if (out.stale > 0) slot->counters.stale_commits.Add(out.stale);
  if (out.trace) {
    const uint64_t end = NowNanos();
    obs::TraceEmit(obs::TraceEventKind::kBatchCommit, out.trace_start,
                   end - out.trace_start, out.entries + out.stale);
  }
}

void BpWrapperCoordinator::OnHit(ThreadSlot* base_slot, PageId page,
                                 FrameId frame) {
  auto* slot = static_cast<Slot*>(base_slot);
  AccessQueue& queue = slot->queue;
  assert(!queue.full());
  queue.Record(page, frame);

  if (queue.size() < options_.batch_threshold) return;
  if (options_.test_commit_without_lock) {
    DrainWithoutLock(slot);
    return;
  }

  // Threshold reached: try to commit without blocking (Fig. 4 line 8).
  BPW_SCHEDULE_POINT("bpw.before_trylock");
  if (options_.prefetch) PrefetchForCommit(slot);
  if (lock_.TryLock()) {
    CommitAndRelease(slot);
    return;
  }
  // Still room: keep recording (Fig. 4 line 11).
  if (!queue.full()) return;
  // Queue completely full: we must block (Fig. 4 line 13).
  BPW_SCHEDULE_POINT("bpw.lock_fallback");
  slot->counters.lock_fallbacks.Add(1);
  if (obs::TraceEnabled()) {
    obs::TraceEmit(obs::TraceEventKind::kLockFallback, NowNanos(), 0);
  }
  lock_.Lock();
  CommitAndRelease(slot);
}

void BpWrapperCoordinator::DrainWithoutLock(Slot* slot) {
  // DrainOwnLocked minus its precondition: the policy's
  // AssertExclusiveAccess fires with no ordering lock, which is exactly the
  // race the certifier must report.
  DrainOutcome out;
  DrainOwnLocked(slot, out);
  PostCommitBookkeeping(slot, out);
}

StatusOr<Coordinator::Victim> BpWrapperCoordinator::ChooseVictim(
    ThreadSlot* base_slot, const EvictableFn& evictable, PageId incoming) {
  auto* slot = static_cast<Slot*>(base_slot);
  BPW_SCHEDULE_POINT("bpw.choose_victim");
  if (options_.prefetch) PrefetchForCommit(slot);
  DrainOutcome out;
  StatusOr<Victim> victim = DrainAndChoose(slot, evictable, incoming, out);
  PostCommitBookkeeping(slot, out);
  return victim;
}

StatusOr<Coordinator::Victim> BpWrapperCoordinator::DrainAndChoose(
    Slot* slot, const EvictableFn& evictable, PageId incoming,
    DrainOutcome& out) {
  ContentionLockGuard guard(lock_);
  policy_->AssertExclusiveAccess();
  BPW_PROF_PHASE("choose_victim");
  // A miss commits the pending accesses first so the policy decides with
  // the freshest history (Fig. 4, replacement_for_page_miss).
  if (!options_.test_skip_commit_before_victim) DrainOwnLocked(slot, out);
  return policy_->ChooseVictim(evictable, incoming);
}

void BpWrapperCoordinator::CompleteMiss(ThreadSlot* base_slot, PageId page,
                                        FrameId frame) {
  auto* slot = static_cast<Slot*>(base_slot);
  DrainOutcome out;
  {
    ContentionLockGuard guard(lock_);
    policy_->AssertExclusiveAccess();
    DrainOwnLocked(slot, out);
    policy_->OnMiss(page, frame);
  }
  PostCommitBookkeeping(slot, out);
}

bool BpWrapperCoordinator::OnErase(ThreadSlot* base_slot, PageId page,
                                   FrameId frame) {
  auto* slot = static_cast<Slot*>(base_slot);
  DrainOutcome out;
  bool resident = false;
  {
    ContentionLockGuard guard(lock_);
    policy_->AssertExclusiveAccess();
    DrainOwnLocked(slot, out);
    resident = policy_->IsResident(page);
    if (resident) policy_->OnErase(page, frame);
  }
  PostCommitBookkeeping(slot, out);
  return resident;
}

void BpWrapperCoordinator::FlushSlot(ThreadSlot* base_slot) {
  auto* slot = static_cast<Slot*>(base_slot);
  if (slot->queue.empty()) return;
  DrainOutcome out;
  {
    ContentionLockGuard guard(lock_);
    DrainOwnLocked(slot, out);
  }
  PostCommitBookkeeping(slot, out);
}

uint64_t BpWrapperCoordinator::StateFingerprint() const {
  // Quiesced-by-contract (model-checker use only: every worker parked).
  // The coordinator keeps no shared state besides the policy; queued
  // entries are per-slot and fingerprinted by SlotStateFingerprint.
  Fingerprint fp;
  fp.Combine(policy_->StateFingerprint());
  return fp.value();
}

uint64_t BpWrapperCoordinator::SlotStateFingerprint(
    const ThreadSlot* base_slot) const {
  const auto* slot = static_cast<const Slot*>(base_slot);
  Fingerprint fp;
  const AccessQueue& queue = slot->queue;
  for (size_t i = 0; i < queue.size(); ++i) {
    fp.Combine(queue[i].page);
    fp.Combine(queue[i].frame);
  }
  return fp.value();
}

}  // namespace bpw
