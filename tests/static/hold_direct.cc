// Seeded violations: the critical-section contract with the effect written
// directly in the hold region rather than behind a helper — allocation,
// clock reads and logging under the lock. The BPW_PROF_* macros are the
// sanctioned way to time a critical section (their clock reads are the
// measurement and compile out under -DBPW_PROF=0), so they are exempt on
// their own line; the raw profiler primitives behind them cannot compile
// out at the call site and count as clock reads.
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusDirectHold {
  ContentionLock lock_;

  // The Locked suffix means the caller holds lock_: the body is a hold
  // region even with no guard in sight.
  void CommitLocked() {
    std::vector<Entry> batch;
    // bpw-check-expect(hold-alloc)
    batch.reserve(64);
    Replay(batch);
  }

  void CommitTimed() {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-clock)
    const uint64_t now = NowNanos();
    Replay(now);
  }

  void CommitLogged() {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-log)
    BPW_LOG_ERROR << "inside the critical section";
  }

  void CommitRawProfiler() {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-clock)
    obs::ScopedProfPhase phase(site_);
    // bpw-check-expect(hold-clock)
    obs::ProfRecordHold(site_, 100);
    Replay();
  }

  // Clean control: the macro spelling is exempt.
  void CommitProfiled() {
    ContentionLockGuard guard(lock_);
    BPW_PROF_PHASE("commit");
    {
      BPW_PROF_PHASE("replay");
      Replay();
    }
  }

  // The exemption covers the macro's own line only.
  void CommitProfiledAndTimed() {
    ContentionLockGuard guard(lock_);
    BPW_PROF_PHASE("commit");
    // bpw-check-expect(hold-clock)
    const uint64_t now = NowNanos();
    Replay(now);
  }
};

}  // namespace corpus
