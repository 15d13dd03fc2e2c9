#include "core/combining_coordinator.h"

#include <cassert>
#include <optional>

#include "obs/contention_profiler.h"
#include "obs/trace_recorder.h"
#include "sync/prefetch.h"
#include "testing/schedule_point.h"
#include "util/clock.h"
#include "util/fingerprint.h"
#include "util/logging.h"

namespace bpw {

CombiningCoordinator::CombiningCoordinator(
    std::unique_ptr<ReplacementPolicy> policy, Options options)
    : policy_(std::move(policy)),
      options_(options),
      lock_(options.instrumentation),
      metrics_source_(&obs::MetricsRegistry::Default(),
                      [this](obs::MetricsSnapshot& snap) {
                        AppendLockMetrics(snap, lock_.stats());
                        snap.Add("coord.commit_batches",
                                 static_cast<double>(commit_batches()));
                        snap.Add("coord.committed_entries",
                                 static_cast<double>(committed_entries()));
                        snap.Add("coord.stale_commits",
                                 static_cast<double>(stale_commits()));
                        snap.Add("coord.lock_fallbacks",
                                 static_cast<double>(lock_fallbacks()));
                        // Without slots these are identically zero.
                        if (options_.max_slots == 0) return;
                        snap.Add("coord.published_batches",
                                 static_cast<double>(published_batches()));
                        snap.Add("coord.combined_batches",
                                 static_cast<double>(combined_peer_batches()));
                        snap.Add("coord.handoff_adoptions",
                                 static_cast<double>(handoff_adoptions()));
                      }) {
  if (options_.queue_size == 0) options_.queue_size = 1;
  if (options_.batch_threshold == 0) options_.batch_threshold = 1;
  if (options_.batch_threshold > options_.queue_size) {
    options_.batch_threshold = options_.queue_size;
  }
  // The slot array is fixed for the coordinator's lifetime: the protocol
  // synchronizes on slot addresses, so the vector must never reallocate.
  pub_slots_ = std::vector<CacheAligned<PubSlot>>(options_.max_slots);
  for (auto& padded : pub_slots_) {
    // Constructor-time sizing: no thread can observe the slots before the
    // coordinator is constructed, so no release stamp is needed here.
    // bpw-lint-allow(relaxed-publication-store)
    padded->entries.resize(options_.queue_size);
  }
  pub_in_use_.assign(options_.max_slots, false);
  lock_.BindProfSite(BPW_PROF_SITE("combining.policy_lock"));
}

CombiningCoordinator::~CombiningCoordinator() {
  MutexGuard guard(slots_mu_);
  if (!slots_.empty()) {
    BPW_LOG_ERROR << "CombiningCoordinator destroyed with " << slots_.size()
                  << " live thread slots";
  }
}

CombiningCoordinator::Slot::~Slot() {
  // Commit any still-published batch and queued accesses before the
  // publication slot index can be handed to a new thread.
  owner_->FlushSlot(this);
  MutexGuard guard(owner_->slots_mu_);
  owner_->slots_.erase(this);
  if (pub_index != kNoPubSlot) {
    owner_->pub_in_use_[pub_index] = false;
  }
}

std::unique_ptr<Coordinator::ThreadSlot>
CombiningCoordinator::RegisterThread() {
  auto slot = std::make_unique<Slot>(this, options_.queue_size);
  slot->claimed.reserve(options_.max_slots);
  MutexGuard guard(slots_mu_);
  slots_.insert(slot.get());
  for (size_t i = 0; i < pub_in_use_.size(); ++i) {
    if (!pub_in_use_[i]) {
      pub_in_use_[i] = true;
      slot->pub_index = i;
      break;
    }
  }
  // pub_index stays kNoPubSlot when all slots are taken (or there are
  // none): the thread then runs the plain BP-Wrapper protocol.
  return slot;
}

void CombiningCoordinator::PrefetchForCombine(const Slot* slot) const {
  // Lock word first (needed soonest), then the policy nodes of everything
  // this thread will replay: its published batch and its private queue.
  // All reads; cannot corrupt shared state (§III-B). Peer batches are
  // prefetched slot-directed at claim time instead.
  PrefetchWrite(&lock_);
  if (slot->pub_index != kNoPubSlot) {
    const PubSlot& pub = *pub_slots_[slot->pub_index];
    if (pub.state.load(std::memory_order_relaxed) != PubSlot::kEmpty) {
      // Prefetch-only peek (SIII-B): a torn batch prefetches a wrong line
      // at worst; the combiner re-reads after its acquire on claim.
      // bpw-lint-allow(unordered-publication-read)
      for (size_t i = 0; i < pub.count; ++i) {
        policy_->PrefetchHint(pub.entries[i].frame);
      }
    }
  }
  const AccessQueue& queue = slot->queue;
  for (size_t i = 0; i < queue.size(); ++i) {
    policy_->PrefetchHint(queue[i].frame);
  }
}

void CombiningCoordinator::Publish(Slot* slot, PubSlot& pub) {
  // Owner-side baton pickup: the recycler's release-store to kEmpty is the
  // real handover; the pseudo-capability acquire hands the race certifier
  // the same happens-before edge.
  BPW_SCHED_LOCK_ACQUIRED(&pub, "combining.pub_slot");
  BPW_MC_ACCESS_WRITE("combining.pub_slot", &pub);
  AccessQueue& queue = slot->queue;
  const size_t n = queue.size();
  // Owner-side capacity check: entries was sized at construction, and the
  // recycler's kEmpty handover (acquired at claim) ordered everything since.
  // bpw-lint-allow(unordered-publication-read)
  assert(n <= pub.entries.size());
  for (size_t i = 0; i < n; ++i) {
    pub.entries[i] = queue[i];
  }
  pub.count = n;
  queue.Clear();
  published_batches_.fetch_add(1, std::memory_order_relaxed);
  published_entries_.fetch_add(n, std::memory_order_relaxed);
  // The pseudo-capability release must precede the release-store: a
  // combiner that claims the slot the instant kReady lands must join a
  // publish clock that already covers the buffer writes above.
  BPW_SCHED_LOCK_RELEASED(&pub, "combining.pub_slot");
  pub.state.store(PubSlot::kReady, std::memory_order_release);
  BPW_SCHEDULE_POINT_OBJ("combining.published", &pub);
}

uint64_t CombiningCoordinator::ApplyEntriesLocked(
    const AccessQueue::Entry* entries, size_t n) {
  policy_->AssertExclusiveAccess();
  uint64_t stale = 0;
  for (size_t i = 0; i < n; ++i) {
    const AccessQueue::Entry& entry = entries[i];
    // §IV-B: skip entries whose buffer page was invalidated or replaced
    // between recording and this (possibly delegated) commit.
    if (!TagStillValid(entry.page, entry.frame)) {
      ++stale;
      continue;
    }
    policy_->OnHit(entry.page, entry.frame);
  }
  return stale;
}

void CombiningCoordinator::DrainOwnLocked(Slot* slot, DrainOutcome& out) {
  PubSlot* pub = PubFor(slot);
  if (pub != nullptr &&
      pub->state.load(std::memory_order_acquire) == PubSlot::kReady) {
    // The published batch is this thread's oldest history: apply it before
    // the private-queue remainder so per-thread order is preserved.
    if (options_.test_clear_ready_before_apply) {
      // MUTATION: ready flag cleared before the apply — the whole batch is
      // dropped on the floor. CheckQuiescedInvariants sees published >
      // drained + pending.
      pub->state.store(PubSlot::kEmpty, std::memory_order_release);
    } else {
      BPW_SCHED_LOCK_ACQUIRED(pub, "combining.pub_slot");
      pub->state.store(PubSlot::kDraining, std::memory_order_relaxed);
      BPW_MC_ACCESS_READ("combining.pub_slot", pub);
      const size_t n = pub->count;
      const uint64_t stale = ApplyEntriesLocked(pub->entries.data(), n);
      out.batches += 1;
      out.entries += n - stale;
      out.stale += stale;
      out.drained_published += n;
      if (options_.test_drain_twice) {
        // MUTATION: the lost-handoff bug — the same claimed slot applied
        // twice. CheckQuiescedInvariants sees drained > published.
        const uint64_t stale2 = ApplyEntriesLocked(pub->entries.data(), n);
        out.batches += 1;
        out.entries += n - stale2;
        out.stale += stale2;
        out.drained_published += n;
      }
      // Capacity was reserved at registration; never allocates under lock.
      // bpw-lint-allow(critical-section-alloc)
      slot->claimed.push_back(slot->pub_index);
    }
  }
  AccessQueue& queue = slot->queue;
  if (!queue.empty()) {
    const size_t n = queue.size();
    const uint64_t stale = ApplyEntriesLocked(queue.data(), n);
    queue.Clear();
    out.batches += 1;
    out.entries += n - stale;
    out.stale += stale;
  }
}

void CombiningCoordinator::DrainPeersLocked(Slot* slot, DrainOutcome& out) {
  const size_t own = slot->pub_index;
  for (size_t i = 0; i < pub_slots_.size(); ++i) {
    if (i == own) continue;
    PubSlot& pub = *pub_slots_[i];
    if (pub.state.load(std::memory_order_acquire) != PubSlot::kReady) {
      continue;
    }
    if (options_.test_clear_ready_before_apply) {
      // MUTATION: see DrainOwnLocked — peer batch silently dropped.
      pub.state.store(PubSlot::kEmpty, std::memory_order_release);
      continue;
    }
    // Claim kReady → kDraining. Only lock holders make this transition and
    // we hold the lock, so a plain store suffices; the acquire-load above
    // pairs with the owner's kReady release-store for the buffer contents.
    BPW_SCHED_LOCK_ACQUIRED(&pub, "combining.pub_slot");
    pub.state.store(PubSlot::kDraining, std::memory_order_relaxed);
    BPW_MC_ACCESS_READ("combining.pub_slot", &pub);
    const size_t n = pub.count;
    if (options_.prefetch) {
      // Slot-directed prefetch: a peer's batch is unknowable before the
      // lock is held (it was published concurrently), so the §III-B
      // pre-lock window does not exist for adopted batches. Prefetching at
      // claim time still overlaps the miss latency with the remaining
      // peers' claims.
      for (size_t j = 0; j < n; ++j) {
        // bpw-lint-allow(prefetch-in-critical-section)
        policy_->PrefetchHint(pub.entries[j].frame);
      }
    }
    const uint64_t stale = ApplyEntriesLocked(pub.entries.data(), n);
    out.batches += 1;
    out.entries += n - stale;
    out.stale += stale;
    out.drained_published += n;
    out.peer_batches += 1;
    if (options_.test_drain_twice) {
      // MUTATION: lost-handoff — peer batch applied twice.
      const uint64_t stale2 = ApplyEntriesLocked(pub.entries.data(), n);
      out.batches += 1;
      out.entries += n - stale2;
      out.stale += stale2;
      out.drained_published += n;
    }
    // Recorded for the post-release recycle; capacity was reserved at
    // registration, so this never allocates inside the critical section.
    // bpw-lint-allow(critical-section-alloc)
    slot->claimed.push_back(i);
  }
}

void CombiningCoordinator::CombineAndRelease(Slot* slot) {
  // Clock reads under the lock are normally forbidden; the trace stamp in
  // DrainOutcome's construction sits before the apply-phase guard below,
  // and it only runs when tracing is on — the span being measured *is* the
  // locked apply.
  DrainOutcome out;
  {
    // Apply phase: the critical section contains policy updates and
    // nothing else. "self_commit" is this thread's own batch + queue;
    // "combine_drain" the peers' adopted batches (none without slots).
    BPW_PROF_PHASE("combine");
    policy_->AssertExclusiveAccess();
    {
      BPW_PROF_PHASE("self_commit");
      DrainOwnLocked(slot, out);
    }
    if (!pub_slots_.empty()) {
      BPW_PROF_PHASE("combine_drain");
      DrainPeersLocked(slot, out);
    }
  }
  lock_.Unlock();
  // ---- early release: everything below runs outside the critical section.
  BPW_SCHEDULE_POINT("combining.post_commit");
  PostCommitBookkeeping(slot, out);
}

void CombiningCoordinator::PostCommitBookkeeping(Slot* slot,
                                                 const DrainOutcome& out) {
  if (options_.test_skip_release) {
    // MUTATION: the stuck-slot bug — applied slots are never recycled, so
    // their owners can never publish again and CheckQuiescedInvariants
    // finds kDraining slots at quiesce.
    slot->claimed.clear();
  } else {
    for (size_t index : slot->claimed) {
      PubSlot& pub = *pub_slots_[index];
      // Baton back to the owner: the certifier edge first, then the
      // release-store the owner's next publish acquire-pairs with.
      BPW_SCHED_LOCK_RELEASED(&pub, "combining.pub_slot");
      pub.state.store(PubSlot::kEmpty, std::memory_order_release);
    }
    slot->claimed.clear();
  }
  if (out.drained_published > 0) {
    drained_entries_.fetch_add(out.drained_published,
                               std::memory_order_relaxed);
  }
  if (out.peer_batches > 0) {
    combined_peer_batches_.fetch_add(out.peer_batches,
                                     std::memory_order_relaxed);
  }
  if (out.batches > 0) {
    commit_batches_.fetch_add(out.batches, std::memory_order_relaxed);
    committed_entries_.fetch_add(out.entries, std::memory_order_relaxed);
    if (out.stale > 0) {
      stale_commits_.fetch_add(out.stale, std::memory_order_relaxed);
    }
    if (out.trace) {
      const uint64_t end = NowNanos();
      obs::TraceEmit(obs::TraceEventKind::kBatchCommit, out.trace_start,
                     end - out.trace_start, out.entries + out.stale);
    }
  }
}

void CombiningCoordinator::OnHit(ThreadSlot* base_slot, PageId page,
                                 FrameId frame) {
  auto* slot = static_cast<Slot*>(base_slot);
  AccessQueue& queue = slot->queue;
  assert(!queue.full());
  queue.Record(page, frame);

  if (queue.size() < options_.batch_threshold) return;

  // Threshold reached: publish the batch so ANY lock holder can retire it,
  // then try to become the combiner.
  PubSlot* pub = PubFor(slot);
  if (pub != nullptr &&
      pub->state.load(std::memory_order_acquire) == PubSlot::kEmpty) {
    Publish(slot, *pub);
  }
  BPW_SCHEDULE_POINT("combining.before_trylock");
  if (options_.prefetch) PrefetchForCombine(slot);
  if (lock_.TryLock()) {
    CombineAndRelease(slot);
    return;
  }
  // Lock busy. If this thread has a batch published, the holder can adopt
  // it — spin briefly for that cooperative handoff instead of blocking.
  if (pub != nullptr &&
      pub->state.load(std::memory_order_acquire) != PubSlot::kEmpty) {
    for (size_t i = 0; i < kHandoffSpins; ++i) {
      BPW_SCHEDULE_YIELD("combining.handoff_spin");
      if (pub->state.load(std::memory_order_acquire) == PubSlot::kEmpty) {
        handoff_adoptions_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }
  if (!queue.full()) {
    // Still room: keep recording (Fig. 4 line 11). The published batch, if
    // not adopted, waits for the next combiner.
    return;
  }
  // Queue completely full and publication impossible or already pending:
  // we must block (Fig. 4 line 13).
  BPW_SCHEDULE_POINT("combining.lock_fallback");
  lock_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  if (obs::TraceEnabled()) {
    obs::TraceEmit(obs::TraceEventKind::kLockFallback, NowNanos(), 0);
  }
  lock_.Lock();
  CombineAndRelease(slot);
}

StatusOr<Coordinator::Victim> CombiningCoordinator::ChooseVictim(
    ThreadSlot* base_slot, const EvictableFn& evictable, PageId incoming) {
  auto* slot = static_cast<Slot*>(base_slot);
  BPW_SCHEDULE_POINT("combining.choose_victim");
  if (options_.prefetch) PrefetchForCombine(slot);
  DrainOutcome out;
  std::optional<StatusOr<Victim>> victim;
  {
    ContentionLockGuard guard(lock_);
    policy_->AssertExclusiveAccess();
    BPW_PROF_PHASE("choose_victim");
    // A miss commits the pending accesses first so the policy decides with
    // the freshest history (Fig. 4, replacement_for_page_miss).
    if (!options_.test_skip_commit_before_victim) DrainOwnLocked(slot, out);
    victim.emplace(policy_->ChooseVictim(evictable, incoming));
  }
  PostCommitBookkeeping(slot, out);
  return std::move(*victim);
}

void CombiningCoordinator::CompleteMiss(ThreadSlot* base_slot, PageId page,
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

bool CombiningCoordinator::OnErase(ThreadSlot* base_slot, PageId page,
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

void CombiningCoordinator::FlushSlot(ThreadSlot* base_slot) {
  auto* slot = static_cast<Slot*>(base_slot);
  PubSlot* pub = PubFor(slot);
  const bool pending_publication =
      pub != nullptr &&
      pub->state.load(std::memory_order_acquire) == PubSlot::kReady;
  if (slot->queue.empty() && !pending_publication) return;
  DrainOutcome out;
  {
    ContentionLockGuard guard(lock_);
    DrainOwnLocked(slot, out);
  }
  PostCommitBookkeeping(slot, out);
}

uint64_t CombiningCoordinator::StateFingerprint() const {
  // Quiesced-by-contract (model-checker use only: every worker parked).
  // The publication slots are shared state: a published-but-undrained
  // batch is logically different from a drained one even when the policy
  // agrees, so the flag/count/entries all feed the fingerprint.
  Fingerprint fp;
  fp.Combine(policy_->StateFingerprint());
  for (const auto& padded : pub_slots_) {
    const PubSlot& pub = *padded;
    const uint32_t state = pub.state.load(std::memory_order_acquire);
    fp.Combine(state);
    if (state == PubSlot::kEmpty) continue;
    fp.Combine(pub.count);
    for (size_t i = 0; i < pub.count; ++i) {
      fp.Combine(pub.entries[i].page);
      fp.Combine(pub.entries[i].frame);
    }
  }
  return fp.value();
}

uint64_t CombiningCoordinator::SlotStateFingerprint(
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

Status CombiningCoordinator::CheckQuiescedInvariants() const {
  const uint64_t published = published_entries_.load(std::memory_order_relaxed);
  const uint64_t drained = drained_entries_.load(std::memory_order_relaxed);
  uint64_t pending = 0;
  size_t stuck = 0;
  for (const auto& padded : pub_slots_) {
    const PubSlot& pub = *padded;
    const uint32_t state = pub.state.load(std::memory_order_acquire);
    if (state == PubSlot::kEmpty) continue;
    pending += pub.count;
    if (state == PubSlot::kDraining) ++stuck;
  }
  if (stuck > 0) {
    return Status::Corruption(
        "combining publication conservation violated: " +
        std::to_string(stuck) +
        " slot(s) stuck in kDraining at quiesce (applied but never "
        "recycled)");
  }
  if (published != drained + pending) {
    return Status::Corruption(
        "combining publication conservation violated: published=" +
        std::to_string(published) + " entries != drained=" +
        std::to_string(drained) + " + pending=" + std::to_string(pending));
  }
  return Status::OK();
}

}  // namespace bpw
