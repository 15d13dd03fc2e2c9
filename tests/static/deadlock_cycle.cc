// Seeded violation: two lock classes acquired in opposite orders in two
// functions. The lock-order graph gets edges free->map and map->free over
// blocking acquisitions, so the acyclicity proof must fail here. (The
// finding is attached to the acquisition that closes the cycle in DFS
// order: the map lock is declared first, so the walk enters via map->free
// and the free->map edge below is the back edge.)
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations` (tools/CMakeLists.txt: bpw_check_corpus), which
// requires the findings to match the expect markers exactly.

namespace corpus {

struct CorpusCyclePool {
  Mutex corpus_map_mu_;
  Mutex corpus_free_mu_;

  void AllocateThenMap() {
    MutexGuard free_guard(corpus_free_mu_);
    // bpw-check-expect(lock-order-cycle)
    MutexGuard map_guard(corpus_map_mu_);  // free -> map: the back edge
  }

  void MapThenAllocate() {
    MutexGuard map_guard(corpus_map_mu_);
    MutexGuard free_guard(corpus_free_mu_);  // map -> free
  }
};

}  // namespace corpus
