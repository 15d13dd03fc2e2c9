// Seeded violations: CAS retry-loop discipline. A lock-free hit path is
// lock-free only if (a) every CAS retry loop has a provable bound — the
// retry count is bounded by the number of concurrent writers, and the
// annotation must say so — and (b) the loop body never falls back to a
// blocking acquisition, which would silently reintroduce the convoy the
// lock-free path exists to avoid.
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusCasRetry {
  Mutex fallback_mu_;

  unsigned long Bump(unsigned long delta) {
    unsigned long cur = word_.load();
    while (true) {
      const unsigned long next = cur + delta;
      // bpw-check-expect(cas-retry-unbounded)
      if (word_.compare_exchange_weak(cur, next)) return next;
    }
  }

  bool BumpThenBlock(unsigned long delta) {
    unsigned long cur = word_.load();
    BPW_BOUNDED_BY(kMaxWriters);
    while (true) {
      const unsigned long next = cur + delta;
      if (word_.compare_exchange_weak(cur, next)) return true;
      // bpw-check-expect(cas-retry-blocks)
      MutexGuard guard(fallback_mu_);  // a lock-free path must stay lock-free
    }
  }

  // Clean control: structurally bounded attempts, blocking fallback taken
  // OUTSIDE the retry loop — the sanctioned shape.
  bool BumpBounded(unsigned long delta) {
    unsigned long cur = word_.load();
    for (int attempt = 0; attempt < 16; ++attempt) {
      const unsigned long next = cur + delta;
      if (word_.compare_exchange_weak(cur, next)) return true;
    }
    MutexGuard guard(fallback_mu_);
    word_.store(word_.load() + delta);
    return true;
  }
};

}  // namespace corpus
