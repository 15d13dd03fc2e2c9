// Control file: every protocol done right, zero findings expected. If the
// analyzer starts flagging any line here it has grown a false positive —
// the corpus gate fails on unexpected findings, not just on missed ones.
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusCleanPool {
  struct CorpusCleanShard {
    ContentionLock lock;
  };

  Mutex corpus_clean_map_mu_;
  Mutex corpus_clean_free_mu_;

  std::atomic<unsigned long> corpus_clean_hits_{0} BPW_RELAXED_OK(
      "stats counter");

  // One global order, everywhere: map before free.
  void ConsistentOrder() {
    MutexGuard map_guard(corpus_clean_map_mu_);
    MutexGuard free_guard(corpus_clean_free_mu_);
  }

  void ConsistentOrderElsewhere() {
    MutexGuard map_guard(corpus_clean_map_mu_);
    MutexGuard free_guard(corpus_clean_free_mu_);
  }

  // A shard lock only ever probes its neighbor with a bounded try, and the
  // statistics counter is bumped after the guard's scope ends.
  bool Probes(CorpusCleanShard& shard, CorpusCleanShard& neighbor) {
    BPW_SCHEDULE_POINT("corpus.probe");
    bool probed = false;
    {
      ContentionLockGuard shard_guard(shard.lock);
      if (neighbor.lock.TryLock()) {
        neighbor.lock.Unlock();
        probed = true;
      }
    }
    corpus_clean_hits_.fetch_add(1, std::memory_order_relaxed);
    return probed;
  }
};

}  // namespace corpus
