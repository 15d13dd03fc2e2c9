// Seeded violations: unbounded loops inside hold regions — directly, and
// reached through a callee. A `while` whose trip count the analyzer cannot
// bound makes the critical section's cost unprovable; the fix is either a
// structural bound or a `BPW_BOUNDED_BY(expr)` annotation naming the
// quantity that bounds it (the annotated control below proves the
// exoneration path works).
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusLoopHold {
  ContentionLock lock_;

  void SpinUntilIdle() {
    while (busy_) {
      Relax();
    }
  }

  void DrainAll() {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-unbounded-loop)
    while (HasWork()) {
      PopOne();
    }
  }

  void DrainViaHelper() {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-unbounded-loop)
    SpinUntilIdle();  // the unbounded loop is one call down
  }

  // Annotated control: the ghost-trim idiom. The loop runs at most
  // (size - capacity) times per call and the annotation says so, so the
  // prover accepts it without a structural bound.
  void TrimGhosts() {
    ContentionLockGuard guard(lock_);
    BPW_BOUNDED_BY(ghosts_.size() - capacity_);
    while (ghosts_.size() > capacity_) {
      DropOldest();
    }
  }
};

}  // namespace corpus
