// Tests for CombiningCoordinator, the one implementation of the BP-Wrapper
// commit protocol. Without publication slots (max_slots = 0, coordinator
// kind "bp-wrapper") it is the paper's Fig. 4 protocol: queue thresholds,
// TryLock behaviour, commit-on-miss, commit ordering, stale-entry
// re-validation, and the "no lock until threshold" property. With slots
// ("pgBat++") it adds publication at the batch threshold, combiner adoption
// of peer batches, slot recycling after the early release, graceful
// degradation when slots run out, and the conservation invariant that
// catches each seeded handoff bug.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/combining_coordinator.h"
#include "policy/lru.h"

namespace bpw {
namespace {

// An instrumented policy that records the order of operations it sees.
class RecordingPolicy : public ReplacementPolicy {
 public:
  explicit RecordingPolicy(size_t frames) : ReplacementPolicy(frames) {}

  void OnHit(PageId page, FrameId) override { hits.push_back(page); }
  void OnMiss(PageId page, FrameId) override {
    misses.push_back(page);
    resident.insert(page);
  }
  StatusOr<Victim> ChooseVictim(const EvictableFn& evictable,
                                PageId) override {
    if (resident.empty() || !evictable(0)) {
      return Status::ResourceExhausted("empty");
    }
    const PageId victim = *resident.begin();
    resident.erase(resident.begin());
    return Victim{victim, 0};
  }
  void OnErase(PageId page, FrameId) override {
    erases.push_back(page);
    resident.erase(page);
  }
  Status CheckInvariants() const override { return Status::OK(); }
  size_t resident_count() const override { return resident.size(); }
  bool IsResident(PageId page) const override {
    return resident.count(page) > 0;
  }
  std::string name() const override { return "recording"; }

  std::vector<PageId> hits;
  std::vector<PageId> misses;
  std::vector<PageId> erases;
  std::set<PageId> resident;
};

constexpr size_t kCombiningSlots = 64;

CombiningCoordinator::Options Opts(size_t queue, size_t threshold,
                                   size_t max_slots = kCombiningSlots,
                                   bool prefetch = false) {
  CombiningCoordinator::Options options;
  options.queue_size = queue;
  options.batch_threshold = threshold;
  options.max_slots = max_slots;
  options.prefetch = prefetch;
  return options;
}

// A case both protocol configurations share: one body, parameterized over
// max_slots, run as BpWrapperTest.<Name> without publication slots and as
// CombiningTest.<Name> with kCombiningSlots of them.
#define PROTOCOL_TEST(Name)                                  \
  void Name##Case(size_t max_slots);                         \
  TEST(BpWrapperTest, Name) { Name##Case(0); }               \
  TEST(CombiningTest, Name) { Name##Case(kCombiningSlots); } \
  void Name##Case(size_t max_slots)

// ---- Cases shared by both configurations ---------------------------------

PROTOCOL_TEST(HitsAreDeferredUntilThreshold) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  CombiningCoordinator coord(std::move(owned), Opts(8, 4, max_slots));
  auto slot = coord.RegisterThread();

  for (PageId p = 0; p < 3; ++p) coord.OnHit(slot.get(), p, 0);
  EXPECT_TRUE(policy->hits.empty()) << "below threshold: nothing committed";
  EXPECT_EQ(coord.lock_stats().acquisitions, 0u)
      << "no lock acquisition before the threshold (the paper's key claim)";
  EXPECT_EQ(coord.published_batches(), 0u)
      << "publication also waits for the threshold";

  coord.OnHit(slot.get(), 3, 0);  // reaches threshold of 4
  EXPECT_EQ(policy->hits.size(), 4u);
  EXPECT_EQ(coord.lock_stats().acquisitions, 1u);
  // Without slots nothing is ever published.
  const uint64_t published = max_slots > 0 ? 1 : 0;
  EXPECT_EQ(coord.published_batches(), published);
  EXPECT_EQ(coord.published_entries(), 4 * published);
  EXPECT_TRUE(coord.CheckQuiescedInvariants().ok());
}

PROTOCOL_TEST(CommitPreservesArrivalOrder) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  CombiningCoordinator coord(std::move(owned), Opts(16, 8, max_slots));
  auto slot = coord.RegisterThread();
  for (PageId p = 100; p < 108; ++p) coord.OnHit(slot.get(), p, 0);
  std::vector<PageId> expected;
  for (PageId p = 100; p < 108; ++p) expected.push_back(p);
  EXPECT_EQ(policy->hits, expected);
}

PROTOCOL_TEST(StaleEntriesSkippedViaTagValidation) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  CombiningCoordinator coord(std::move(owned), Opts(8, 4, max_slots));

  // Simulate the pool's frame tag array.
  std::vector<std::atomic<PageId>> tags(16);
  for (auto& t : tags) t.store(kInvalidPageId);
  coord.BindFrameTags(tags.data(), tags.size());

  auto slot = coord.RegisterThread();
  tags[0].store(10);
  tags[1].store(11);
  coord.OnHit(slot.get(), 10, 0);
  coord.OnHit(slot.get(), 11, 1);
  // Page 11 is evicted and frame 1 re-used before the commit.
  tags[1].store(99);
  coord.OnHit(slot.get(), 10, 0);
  coord.OnHit(slot.get(), 10, 0);  // 4th entry triggers the commit
  ASSERT_EQ(policy->hits.size(), 3u) << "stale entry must be skipped";
  for (PageId p : policy->hits) EXPECT_EQ(p, 10u);
  EXPECT_EQ(coord.stale_commits(), 1u);
  // A stale skip is NOT a conservation leak: the entry was drained (and
  // discarded), not lost.
  EXPECT_TRUE(coord.CheckQuiescedInvariants().ok());
}

PROTOCOL_TEST(FlushSlotCommitsPartialQueue) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  CombiningCoordinator coord(std::move(owned), Opts(64, 32, max_slots));
  auto slot = coord.RegisterThread();
  coord.OnHit(slot.get(), 5, 0);
  coord.OnHit(slot.get(), 6, 0);
  EXPECT_TRUE(policy->hits.empty());
  coord.FlushSlot(slot.get());
  EXPECT_EQ(policy->hits.size(), 2u);
  // Flushing an empty queue is a no-op (no lock acquisition).
  const uint64_t acq = coord.lock_stats().acquisitions;
  coord.FlushSlot(slot.get());
  EXPECT_EQ(coord.lock_stats().acquisitions, acq);
}

PROTOCOL_TEST(SlotDestructionFlushesQueue) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  CombiningCoordinator coord(std::move(owned), Opts(64, 32, max_slots));
  {
    auto slot = coord.RegisterThread();
    coord.OnHit(slot.get(), 8, 0);
  }  // slot destroyed with one queued access
  EXPECT_EQ(policy->hits.size(), 1u);
  EXPECT_TRUE(coord.CheckQuiescedInvariants().ok());
}

PROTOCOL_TEST(ThresholdClampedToQueueSize) {
  CombiningCoordinator coord(
      std::make_unique<LruPolicy>(4),
      Opts(/*queue=*/4, /*threshold=*/100, max_slots));
  EXPECT_EQ(coord.options().batch_threshold, 4u);
  CombiningCoordinator zero(std::make_unique<LruPolicy>(4),
                            Opts(0, 0, max_slots));
  EXPECT_EQ(zero.options().queue_size, 1u);
  EXPECT_EQ(zero.options().batch_threshold, 1u);
  EXPECT_EQ(zero.options().max_slots, max_slots) << "max_slots is not clamped";
}

PROTOCOL_TEST(PrefetchVariantBehavesIdentically) {
  auto run = [max_slots](bool prefetch) {
    auto owned = std::make_unique<RecordingPolicy>(16);
    RecordingPolicy* policy = owned.get();
    CombiningCoordinator coord(std::move(owned),
                               Opts(8, 4, max_slots, prefetch));
    auto slot = coord.RegisterThread();
    for (PageId p = 0; p < 20; ++p) coord.OnHit(slot.get(), p, 0);
    coord.FlushSlot(slot.get());
    return policy->hits;
  };
  EXPECT_EQ(run(false), run(true));
}

PROTOCOL_TEST(ConcurrentThreadsAllCommitted) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  CombiningCoordinator coord(std::move(owned), Opts(16, 8, max_slots));
  constexpr int kThreads = 8;
  constexpr int kHitsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&coord, t] {
      auto slot = coord.RegisterThread();
      for (int i = 0; i < kHitsPerThread; ++i) {
        coord.OnHit(slot.get(), static_cast<PageId>(t), 0);
      }
      coord.FlushSlot(slot.get());
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(policy->hits.size(),
            static_cast<size_t>(kThreads) * kHitsPerThread);
  // Per-thread order must be preserved even though threads interleave:
  // every thread's hits use its own page id, so each id must appear exactly
  // kHitsPerThread times.
  std::map<PageId, int> counts;
  for (PageId p : policy->hits) ++counts[p];
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counts[static_cast<PageId>(t)], kHitsPerThread);
  }
  // Conservation holds after a genuinely concurrent run: the quiesced
  // equation must balance exactly.
  EXPECT_TRUE(coord.CheckQuiescedInvariants().ok());
}

// ---- The plain protocol (no publication slots) ---------------------------

TEST(BpWrapperTest, MissCommitsQueueFirst) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  CombiningCoordinator coord(std::move(owned), Opts(16, 10, 0));
  auto slot = coord.RegisterThread();
  coord.OnHit(slot.get(), 1, 0);
  coord.OnHit(slot.get(), 2, 0);
  // Miss path: ChooseVictim then CompleteMiss must both see the hits
  // committed beforehand (Fig. 4 replacement_for_page_miss).
  coord.CompleteMiss(slot.get(), 50, 0);
  ASSERT_EQ(policy->hits.size(), 2u);
  ASSERT_EQ(policy->misses.size(), 1u);
  EXPECT_EQ(policy->hits[0], 1u);
  EXPECT_EQ(policy->hits[1], 2u);
}

TEST(BpWrapperTest, ChooseVictimCommitsQueueFirst) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  CombiningCoordinator coord(std::move(owned), Opts(16, 10, 0));
  auto slot = coord.RegisterThread();
  coord.CompleteMiss(slot.get(), 7, 0);  // make one page resident
  coord.OnHit(slot.get(), 7, 0);
  auto victim = coord.ChooseVictim(
      slot.get(), [](FrameId) { return true; }, 99);
  ASSERT_TRUE(victim.ok());
  EXPECT_EQ(policy->hits.size(), 1u) << "queued hit committed before victim";
}

TEST(BpWrapperTest, FullQueueForcesBlockingCommit) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  CombiningCoordinator coord(std::move(owned), Opts(4, 2, 0));
  auto slot = coord.RegisterThread();

  // Hold the lock from another thread so TryLock fails at the threshold:
  // a ChooseVictim whose evictable callback parks holds the policy lock.
  auto blocker_slot = coord.RegisterThread();
  std::atomic<bool> release{false};
  std::atomic<bool> holding{false};
  std::thread blocker([&] {
    coord.CompleteMiss(blocker_slot.get(), 1000, 1);
    auto victim = coord.ChooseVictim(
        blocker_slot.get(),
        [&](FrameId) {
          holding.store(true);
          while (!release.load()) std::this_thread::yield();
          return true;
        },
        2000);
    EXPECT_TRUE(victim.ok());
  });
  while (!holding.load()) std::this_thread::yield();

  // Threshold (2) reached -> TryLock fails -> keep recording (entries 0..2).
  coord.OnHit(slot.get(), 0, 0);
  coord.OnHit(slot.get(), 1, 0);
  coord.OnHit(slot.get(), 2, 0);
  EXPECT_TRUE(policy->hits.empty());
  EXPECT_GE(coord.lock_stats().trylock_failures, 1u);
  EXPECT_EQ(coord.lock_stats().contentions, 0u);

  // Fourth hit fills the queue: the thread must block until released.
  std::thread filler([&] { coord.OnHit(slot.get(), 3, 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(policy->hits.empty()) << "filler must still be blocked";
  release.store(true);
  filler.join();
  blocker.join();
  EXPECT_EQ(policy->hits.size(), 4u);
  EXPECT_GE(coord.lock_stats().contentions, 1u)
      << "full-queue fallback is a blocking Lock()";
  EXPECT_EQ(coord.lock_fallbacks(), 1u);
}

TEST(BpWrapperTest, BatchAccountingTracksAverages) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  CombiningCoordinator coord(std::move(owned), Opts(8, 4, 0));
  auto slot = coord.RegisterThread();
  for (int i = 0; i < 12; ++i) {
    coord.OnHit(slot.get(), static_cast<PageId>(i), 0);
  }
  EXPECT_EQ(coord.commit_batches(), 3u);
  EXPECT_EQ(coord.committed_entries(), 12u);
}

// ---- Flat combining (publication slots) ----------------------------------

// The flat-combining core: a batch published while the lock was held is
// adopted by the NEXT combiner in its single lock-holding period, so the
// publishing thread never re-acquires for it.
TEST(CombiningTest, CombinerAdoptsPeerBatch) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  CombiningCoordinator coord(std::move(owned), Opts(8, 4));
  auto waiter = coord.RegisterThread();
  auto combiner = coord.RegisterThread();

  // Hold the lock from another thread so the waiter's TryLock fails.
  auto blocker_slot = coord.RegisterThread();
  std::atomic<bool> release{false};
  std::atomic<bool> holding{false};
  std::thread blocker([&] {
    coord.CompleteMiss(blocker_slot.get(), 1000, 1);
    auto victim = coord.ChooseVictim(
        blocker_slot.get(),
        [&](FrameId) {
          holding.store(true);
          while (!release.load()) std::this_thread::yield();
          return true;
        },
        2000);
    EXPECT_TRUE(victim.ok());
  });
  while (!holding.load()) std::this_thread::yield();

  // Waiter reaches the threshold: publishes, fails TryLock, spins out its
  // bounded handoff, and returns non-blocked with the batch still posted.
  for (PageId p = 0; p < 4; ++p) coord.OnHit(waiter.get(), p, 0);
  EXPECT_EQ(coord.published_batches(), 1u);
  EXPECT_GE(coord.lock_stats().trylock_failures, 1u);
  EXPECT_EQ(coord.lock_stats().contentions, 0u) << "handoff never blocks";
  release.store(true);
  blocker.join();
  // The blocker's miss path drains only its own slot — the waiter's batch
  // is still published, not yet applied.
  EXPECT_EQ(coord.combined_peer_batches(), 0u);

  // The next combiner retires its own batch AND the waiter's in one hold.
  const uint64_t acq_before = coord.lock_stats().acquisitions;
  for (PageId p = 10; p < 14; ++p) coord.OnHit(combiner.get(), p, 0);
  EXPECT_EQ(coord.lock_stats().acquisitions, acq_before + 1);
  EXPECT_EQ(coord.combined_peer_batches(), 1u);
  // Hit counts: waiter's 4 + combiner's 4 (order between threads is
  // unspecified; per-thread order is preserved).
  std::multiset<PageId> seen(policy->hits.begin(), policy->hits.end());
  for (PageId p = 0; p < 4; ++p) EXPECT_EQ(seen.count(p), 1u);
  for (PageId p = 10; p < 14; ++p) EXPECT_EQ(seen.count(p), 1u);
  EXPECT_TRUE(coord.CheckQuiescedInvariants().ok());

  // The adopted slot was recycled post-release: the waiter can publish and
  // self-commit again.
  for (PageId p = 20; p < 24; ++p) coord.OnHit(waiter.get(), p, 0);
  EXPECT_EQ(coord.published_batches(), 3u);
  EXPECT_TRUE(coord.CheckQuiescedInvariants().ok());
}

TEST(CombiningTest, MissCommitsOwnPublicationFirst) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  CombiningCoordinator coord(std::move(owned), Opts(16, 10));
  auto slot = coord.RegisterThread();
  coord.OnHit(slot.get(), 1, 0);
  coord.OnHit(slot.get(), 2, 0);
  coord.CompleteMiss(slot.get(), 50, 0);
  ASSERT_EQ(policy->hits.size(), 2u);
  ASSERT_EQ(policy->misses.size(), 1u);
  EXPECT_EQ(policy->hits[0], 1u);
  EXPECT_EQ(policy->hits[1], 2u);
}

// More registered threads than publication slots is a supported
// configuration: the overflow threads run plain BP-Wrapper (no publish,
// no adoption) and nothing is lost.
TEST(CombiningTest, DegradesGracefullyWhenSlotsExhausted) {
  CombiningCoordinator coord(std::make_unique<RecordingPolicy>(16),
                             Opts(8, 4, /*max_slots=*/1));
  auto slotted = coord.RegisterThread();
  auto overflow = coord.RegisterThread();
  for (PageId p = 0; p < 4; ++p) coord.OnHit(overflow.get(), p, 0);
  for (PageId p = 10; p < 14; ++p) coord.OnHit(slotted.get(), p, 0);
  EXPECT_EQ(coord.committed_entries(), 8u);
  EXPECT_EQ(coord.published_batches(), 1u) << "only the slotted thread posts";
  EXPECT_TRUE(coord.CheckQuiescedInvariants().ok());
  // A released publication index is re-usable by a later registrant.
  overflow.reset();
  slotted.reset();
  auto next = coord.RegisterThread();
  for (PageId p = 20; p < 24; ++p) coord.OnHit(next.get(), p, 0);
  EXPECT_EQ(coord.published_batches(), 2u);
}

TEST(CombiningTest, NameReflectsPrefetch) {
  CombiningCoordinator plain(std::make_unique<LruPolicy>(4), Opts(8, 4));
  EXPECT_EQ(plain.name(), "combining");
  CombiningCoordinator pre(std::make_unique<LruPolicy>(4),
                           Opts(8, 4, kCombiningSlots, true));
  EXPECT_EQ(pre.name(), "combining+pre");
  // Without slots the coordinator is named for the protocol it runs.
  CombiningCoordinator bpw(std::make_unique<LruPolicy>(4), Opts(8, 4, 0));
  EXPECT_EQ(bpw.name(), "bp-wrapper");
  CombiningCoordinator bpw_pre(std::make_unique<LruPolicy>(4),
                               Opts(8, 4, 0, true));
  EXPECT_EQ(bpw_pre.name(), "bp-wrapper+pre");
}

// --- Seeded-mutation coverage: each handoff bug must break the
// --- conservation invariant, in a single-threaded deterministic replay.

TEST(CombiningMutationTest, DrainTwiceBreaksConservation) {
  CombiningCoordinator::Options options = Opts(8, 4);
  options.test_drain_twice = true;
  CombiningCoordinator coord(std::make_unique<RecordingPolicy>(16), options);
  auto slot = coord.RegisterThread();
  for (PageId p = 0; p < 4; ++p) coord.OnHit(slot.get(), p, 0);
  Status status = coord.CheckQuiescedInvariants();
  ASSERT_FALSE(status.ok()) << "double-applied slot must be detected";
  EXPECT_NE(status.message().find("publication conservation"),
            std::string::npos)
      << status.message();
}

TEST(CombiningMutationTest, ClearReadyBeforeApplyBreaksConservation) {
  CombiningCoordinator::Options options = Opts(8, 4);
  options.test_clear_ready_before_apply = true;
  CombiningCoordinator coord(std::make_unique<RecordingPolicy>(16), options);
  auto slot = coord.RegisterThread();
  for (PageId p = 0; p < 4; ++p) coord.OnHit(slot.get(), p, 0);
  Status status = coord.CheckQuiescedInvariants();
  ASSERT_FALSE(status.ok()) << "dropped batch must be detected";
  EXPECT_NE(status.message().find("publication conservation"),
            std::string::npos)
      << status.message();
}

TEST(CombiningMutationTest, SkipReleaseLeavesSlotStuckDraining) {
  CombiningCoordinator::Options options = Opts(8, 4);
  options.test_skip_release = true;
  CombiningCoordinator coord(std::make_unique<RecordingPolicy>(16), options);
  auto slot = coord.RegisterThread();
  for (PageId p = 0; p < 4; ++p) coord.OnHit(slot.get(), p, 0);
  Status status = coord.CheckQuiescedInvariants();
  ASSERT_FALSE(status.ok()) << "unrecycled slot must be detected";
  EXPECT_NE(status.message().find("kDraining"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace bpw
