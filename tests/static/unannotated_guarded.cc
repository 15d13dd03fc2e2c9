// Seeded violation: a field handed to the model checker's race certifier
// (BPW_MC_ACCESS_*) must say how it is synchronized — a capability
// (BPW_GUARDED_BY) or a publication/relaxed annotation. A bare field in a
// BPW_MC_ACCESS_WRITE is a data race waiting for the certifier to find
// it, so the analyzer rejects the declaration-site omission statically.
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusRaceTarget {
  Mutex corpus_word_mu_;
  unsigned long corpus_bare_word = 0;
  unsigned long corpus_guarded_word BPW_GUARDED_BY(corpus_word_mu_) = 0;

  void TouchBare() {
    // bpw-check-expect(mc-access-unannotated)
    BPW_MC_ACCESS_WRITE("corpus.bare_word", &corpus_bare_word);
    corpus_bare_word = 1;
  }

  void TouchGuarded() {
    MutexGuard guard(corpus_word_mu_);
    BPW_MC_ACCESS_WRITE("corpus.guarded_word", &corpus_guarded_word);
    corpus_guarded_word = 2;
  }
};

}  // namespace corpus
