// Seeded violations: observability side effects — clock reads, file IO,
// logging — reached transitively from hold regions. Each one is cheap in
// isolation; under a hot lock each is serialized across every waiter. All
// three are hidden behind helpers so only the transitive effect sets of
// the hold prover can attribute them to the critical section.
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusObsHold {
  ContentionLock lock_;

  unsigned long StampNow() { return NowNanos(); }

  void PersistStats(void* file) { fwrite(buf_, 1, len_, file); }

  void TraceDrop() { BPW_LOG_ERROR << "dropped"; }

  void CommitTimed() {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-clock)
    StampNow();  // vDSO at best, syscall at worst — not under the lock
  }

  void CommitPersist(void* file) {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-io)
    PersistStats(file);  // disk latency serialized behind the lock
  }

  void CommitNoisy() {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-log)
    TraceDrop();  // log formatting + sink IO under the lock
  }
};

}  // namespace corpus
