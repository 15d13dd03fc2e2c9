// Seeded violation: a lock class annotated BPW_LOCK_LEAF makes a blocking
// acquisition while held. Leaf classes must have zero blocking out-degree
// — that is the encoded form of a "never hold two shard locks"
// invariant; TryLock-bounded edges stay whitelisted (see TryNeighbor).
//
// Not compiled — analyzed standalone by `bpw_atomiclint
// --check-expectations`.

namespace corpus {

struct CorpusShardSet {
  struct CorpusShard {
    ContentionLock lock BPW_LOCK_CLASS("corpus-shard") BPW_LOCK_LEAF;
  };

  Mutex corpus_registry_mu_;

  void LeafEscalates(CorpusShard& shard) {
    ContentionLockGuard shard_guard(shard.lock);
    // bpw-atomiclint-expect(leaf-lock-acquires)
    MutexGuard registry_guard(corpus_registry_mu_);  // leaf blocks: rejected
  }

  bool TryNeighbor(CorpusShard& shard, CorpusShard& neighbor) {
    ContentionLockGuard shard_guard(shard.lock);
    // A bounded probe of a second shard is the sanctioned shape: the try
    // edge is dashed in the DOT graph and whitelisted by both rules.
    if (neighbor.lock.TryLock()) {
      neighbor.lock.Unlock();
      return true;
    }
    return false;
  }
};

}  // namespace corpus
