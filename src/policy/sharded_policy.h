// ShardedPolicy: a generic adapter that splits any replacement policy into
// N independent shards, one per hash slice of the page-id space.
//
// Motivation (ROADMAP scale axis): a single policy instance is one
// capability behind one lock, so even BP-Wrapper's batched commits
// serialize on it eventually. Sharding gives each slice of the page-id
// space its own policy instance — and therefore its own lock/capability —
// so commits from different slices proceed in parallel and the per-shard
// critical sections shrink.
//
// Routing: ShardOf() takes the high bits of a multiplicative (Fibonacci)
// hash of the page id, the 0x9E3779B97F4A7C15 stream. Consecutive page
// ids — a scan, a table's pages — spread across shards instead of piling
// onto one, and a page's shard is a pure function of its id, so it stays
// put across evictions and reloads. The formula is part of every recorded
// sharded baseline: changing it moves pages between shards.
//
// Capacity: every shard is built with the FULL frame capacity. Shards
// share the global frame supply, so the sum of resident pages can never
// exceed num_frames anyway; per-shard full capacity means a skewed hash
// can never trip a shard's OnMiss capacity precondition. The cost is that
// per-shard ghost budgets (2Q's kout, LIRS's non-resident bound, ...) are
// over-provisioned by ~N×; ghost memory stays bounded by O(N · frames).
//
// Shard count 1 is a pure pass-through: every method routes to shard 0
// unconditionally, so the adapter is bit-identical to the bare policy
// (asserted per-policy by tests/equivalence_test.cc).
//
// Capability model: the adapter is itself a ReplacementPolicy capability,
// and its routing methods REQUIRE it — holding the whole adapter
// exclusively (serialized coordinator, quiesced test) implies exclusive
// access to every shard, certified by the per-shard
// AssertExclusiveAccess() calls inside. The sharded coordinator does NOT
// use these routing methods on hot paths: it addresses shard(i) directly,
// asserting each shard's own capability under that shard's lock — the
// per-shard capability conversion this PR is about.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "policy/replacement_policy.h"
#include "util/thread_annotations.h"

namespace bpw {

class ShardedPolicy : public ReplacementPolicy {
 public:
  /// Builds `num_shards` instances of the policy named `inner`, each with
  /// full `num_frames` capacity (see capacity note above).
  static StatusOr<std::unique_ptr<ShardedPolicy>> Create(
      const std::string& inner, size_t num_shards, size_t num_frames);

  /// Home shard of a page: the Fibonacci hash's high bits. Static so tests
  /// can assert a page's shard without an instance.
  static size_t ShardOf(PageId page, size_t num_shards) {
    const uint64_t h = page * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(h >> 32) % num_shards;
  }

  size_t ShardFor(PageId page) const { return ShardOf(page, shards_.size()); }
  size_t shard_count() const { return shards_.size(); }
  ReplacementPolicy* shard(size_t i) { return shards_[i].get(); }
  const ReplacementPolicy* shard(size_t i) const { return shards_[i].get(); }

  // --- ReplacementPolicy interface: route by home shard -------------------

  void OnHit(PageId page, FrameId frame) override BPW_REQUIRES(this);
  void OnMiss(PageId page, FrameId frame) override BPW_REQUIRES(this);
  /// Victim search starts at `incoming`'s home shard (its ghost lists know
  /// the incoming page); on ResourceExhausted it borrows from the other
  /// shards round-robin — the global frame supply is shared, so a shard
  /// with nothing evictable must not fail the whole pool.
  StatusOr<Victim> ChooseVictim(const EvictableFn& evictable,
                                PageId incoming) override BPW_REQUIRES(this);
  void OnErase(PageId page, FrameId frame) override BPW_REQUIRES(this);
  Status CheckInvariants() const override BPW_REQUIRES_SHARED(this);
  size_t resident_count() const override BPW_REQUIRES_SHARED(this);
  bool IsResident(PageId page) const override BPW_REQUIRES_SHARED(this);
  std::string name() const override;
  size_t ghost_count() const override BPW_REQUIRES_SHARED(this);
  bool IsGhostPage(PageId page) const override BPW_REQUIRES_SHARED(this);
  bool RebalanceSupported() const override {
    return shards_[0]->RebalanceSupported();
  }
  bool StateFingerprintSupported() const override;
  uint64_t StateFingerprint() const override BPW_REQUIRES_SHARED(this);

  // --- Cross-shard conservation oracle ------------------------------------
  // The shard-sum invariant: every mapped page is tracked as resident by
  // exactly its home shard, and each shard's resident count equals the
  // number of mapped pages hashing to it (Σ per-shard == pool-mapped
  // total). A page resident in two shards (double-tracking) or in a
  // non-home shard (stale-shard eviction) breaks it. Shared by the unit
  // tests, the sharded coordinator's CheckQuiescedInvariants (stress
  // layer), and the model checker's integrity diagnosis.

  /// `frame_page(f)` returns the page mapped in frame f, or kInvalidPageId.
  Status CheckShardConservation(
      const std::function<PageId(FrameId)>& frame_page,
      size_t frame_count) const BPW_REQUIRES_SHARED(this);

  /// Ghost half of the oracle, for unit tests that know the page universe:
  /// no page id in [0, universe) may be ghost-tracked by a non-home shard.
  /// (The Σ-ghost side is ghost_count(), which sums the shards; tests
  /// compare it against the unsharded policy's count.)
  Status CheckGhostDisjointness(PageId universe) const
      BPW_REQUIRES_SHARED(this);

 private:
  ShardedPolicy(std::vector<std::unique_ptr<ReplacementPolicy>> shards,
                size_t num_frames);

  std::vector<std::unique_ptr<ReplacementPolicy>> shards_;
};

}  // namespace bpw
