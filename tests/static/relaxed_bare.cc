// Seeded violations of the relaxed-atomics discipline: every relaxed
// access must either hit a field that carries a concurrency annotation
// (BPW_RELAXED_OK / capability) or sit under a standalone
// BPW_RELAXED_OK("reason") site statement.
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusCounters {
  std::atomic<unsigned long> corpus_hits_{0};
  std::atomic<unsigned long> corpus_misses_{0} BPW_RELAXED_OK("stats counter");

  void Record(bool hit) {
    if (hit) {
      // bpw-check-expect(relaxed-unannotated)
      corpus_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      corpus_misses_.fetch_add(1, std::memory_order_relaxed);  // annotated
    }
  }

  void Reset() {
    // A documented site statement covers its own line and the next.
    BPW_RELAXED_OK("corpus: reset runs with all recording threads joined");
    corpus_hits_.store(0, std::memory_order_relaxed);
    corpus_misses_.store(0, std::memory_order_relaxed);
  }
};

}  // namespace corpus
