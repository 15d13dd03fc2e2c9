// Seeded violation: a blocking call reached transitively from a hold
// region. Waiting while holding a contention lock is the cardinal sin the
// paper's framework exists to remove — every waiter behind the lock
// inherits the sleep. The sleep is hidden one call down, invisible to any
// line-local rule.
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusBlockHold {
  ContentionLock lock_;

  void BackoffABit() { sleep_for(kRetryDelay); }

  void DrainSlow() {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-block)
    BackoffABit();  // -> sleep_for: the whole convoy sleeps with us
  }
};

}  // namespace corpus
