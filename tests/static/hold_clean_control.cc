// Clean control for the hold-cost prover: every discipline the corpus
// violates, done right. Guards over effect-free callees, a structurally
// bounded loop, an annotated loop, an exonerated allocation with its
// audit reason, and the TryLock + adopt-guard fast path. bpw_check
// must report nothing here — a finding in this file is a false positive
// regression.
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusCleanHold {
  ContentionLock lock_;

  int Classify(int page) { return page & 7; }

  void Advance(int frame) { cursor_ = frame; }

  void Replay(int count) {
    ContentionLockGuard guard(lock_);
    for (int i = 0; i < count; ++i) {
      Advance(Classify(i));
    }
  }

  void TrimBounded() {
    ContentionLockGuard guard(lock_);
    BPW_BOUNDED_BY(live_.size() - capacity_);
    while (live_.size() > capacity_) {
      Advance(0);
    }
  }

  // Exonerated effect, with the audit reason the macro demands: the push
  // lands in capacity reserved at construction, so steady-state calls
  // never take the allocator lock.
  void Stash(int entry)
      BPW_HOLD_EFFECT_OK(alloc,
                         "push_back into capacity reserved at construction; "
                         "steady-state calls never allocate") {
    ContentionLockGuard guard(lock_);
    stash_.push_back(entry);
  }

  bool FastPath(int count) {
    BPW_SCHEDULE_POINT("corpus.fast_path");
    if (!lock_.TryLock()) return false;
    ContentionLockAdoptGuard guard(lock_);
    for (int i = 0; i < count; ++i) {
      Advance(i);
    }
    return true;
  }
};

}  // namespace corpus
