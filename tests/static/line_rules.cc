// Seeded violations of the line rules (analysis/line_rules.h), one or more
// per rule, next to the clean and suppressed shapes they must not flag.
// The corpus run treats every file as library code, so the rules scoped to
// src/ outside src/sync/ fire here too.
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusLineRules {
  ContentionLock lock_;
  // bpw-check-expect(raw-mutex)
  std::mutex side_mu_;  // invisible to the thread-safety analysis and mc

  void CommitLocked(AccessQueue& queue) { Replay(queue); }

  // Prefetch issued after the lock is taken: it can no longer overlap the
  // memory latency with other threads' work (paper §III-B).
  void CommitPrefetchLate(AccessQueue& queue) {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(prefetch-in-critical-section)
    PrefetchForCommit(queue);
    CommitLocked(queue);
  }

  // Clean control: prefetch first, then take the lock.
  void CommitPrefetchEarly(AccessQueue& queue) {
    PrefetchForCommit(queue);
    ContentionLockGuard guard(lock_);
    CommitLocked(queue);
  }

  // Suppressed control: an allow silences the named rule on its line.
  void CommitPrefetchAllowed(AccessQueue& queue) {
    ContentionLockGuard guard(lock_);
    // bpw-lint-allow(prefetch-in-critical-section)
    PrefetchForCommit(queue);
  }

  // Relaxed bookkeeping left inside the critical section: the early-release
  // split would apply, unlock, then count.
  void CommitCounted(AccessQueue& queue) {
    ContentionLockGuard guard(lock_);
    CommitLocked(queue);
    // bpw-check-expect(post-commit-under-lock)
    corpus_commits_.fetch_add(1, std::memory_order_relaxed);
  }

  // A discarded TryLock() with no blocking fallback in the function.
  void PollBroken() {
    BPW_SCHEDULE_POINT("corpus.poll");
    // bpw-check-expect(trylock-unchecked) bpw-check-expect(trylock-no-fallback)
    lock_.TryLock();
  }

  // A lock acquisition with no schedule point: a blind spot for the model
  // checker and the stress scheduler.
  void DrainBlind(AccessQueue& queue) {
    // bpw-check-expect(lock-no-schedule-point)
    lock_.Lock();
    CommitLocked(queue);
    lock_.Unlock();
  }

  // Clean control: schedule point, checked TryLock, blocking fallback.
  void DrainCovered(AccessQueue& queue) {
    BPW_SCHEDULE_POINT("corpus.drain.before_trylock");
    if (lock_.TryLock()) {
      ContentionLockAdoptGuard guard(lock_);
      CommitLocked(queue);
      return;
    }
    ContentionLockGuard guard(lock_);
    CommitLocked(queue);
  }

  std::atomic<unsigned long> corpus_commits_{0} BPW_RELAXED_OK(
      "stats counter");
};

}  // namespace corpus
