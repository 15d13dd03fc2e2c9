// Seeded violation: an allocation reached TRANSITIVELY from a hold region.
// The critical section itself looks clean — the `new` hides two calls deep
// — so no line-local rule could see it. The interprocedural effect
// propagation catches it, and the finding's witness chain names the full
// path to the allocator.
//
// Not compiled — analyzed standalone by `bpw_check
// --check-expectations`.

namespace corpus {

struct CorpusAllocHold {
  ContentionLock lock_;

  int* GrowTable() { return new int[64]; }

  void RecordAccess() { GrowTable(); }

  void Commit() {
    ContentionLockGuard guard(lock_);
    // bpw-check-expect(hold-alloc)
    RecordAccess();  // -> GrowTable -> new: allocation under the lock
  }

  // The same proof obligation applies to BPW_REQUIRES callees: this method
  // asserts it runs with lock_ held, so its body is a hold region even
  // though no guard is in sight.
  void ReplayHeld() BPW_REQUIRES(lock_) {
    // bpw-check-expect(hold-alloc)
    RecordAccess();
  }
};

}  // namespace corpus
