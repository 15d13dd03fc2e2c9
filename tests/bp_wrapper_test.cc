// Tests for BpWrapperCoordinator, the one implementation of the BP-Wrapper
// commit protocol (Fig. 4): queue thresholds, TryLock behaviour,
// commit-on-miss, commit ordering, stale-entry re-validation, and the "no
// lock until threshold" property.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/bp_wrapper.h"
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

BpWrapperCoordinator::Options Opts(size_t queue, size_t threshold,
                                   bool prefetch = false) {
  BpWrapperCoordinator::Options options;
  options.queue_size = queue;
  options.batch_threshold = threshold;
  options.prefetch = prefetch;
  return options;
}

TEST(BpWrapperTest, HitsAreDeferredUntilThreshold) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  BpWrapperCoordinator coord(std::move(owned), Opts(8, 4));
  auto slot = coord.RegisterThread();

  for (PageId p = 0; p < 3; ++p) coord.OnHit(slot.get(), p, 0);
  EXPECT_TRUE(policy->hits.empty()) << "below threshold: nothing committed";
  EXPECT_EQ(coord.lock_stats().acquisitions, 0u)
      << "no lock acquisition before the threshold (the paper's key claim)";

  coord.OnHit(slot.get(), 3, 0);  // reaches threshold of 4
  EXPECT_EQ(policy->hits.size(), 4u);
  EXPECT_EQ(coord.lock_stats().acquisitions, 1u);
}

TEST(BpWrapperTest, CommitPreservesArrivalOrder) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  BpWrapperCoordinator coord(std::move(owned), Opts(16, 8));
  auto slot = coord.RegisterThread();
  for (PageId p = 100; p < 108; ++p) coord.OnHit(slot.get(), p, 0);
  std::vector<PageId> expected;
  for (PageId p = 100; p < 108; ++p) expected.push_back(p);
  EXPECT_EQ(policy->hits, expected);
}

TEST(BpWrapperTest, StaleEntriesSkippedViaTagValidation) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  BpWrapperCoordinator coord(std::move(owned), Opts(8, 4));

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
  EXPECT_EQ(coord.committed_entries(), 3u);
}

TEST(BpWrapperTest, FlushSlotCommitsPartialQueue) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  BpWrapperCoordinator coord(std::move(owned), Opts(64, 32));
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

TEST(BpWrapperTest, SlotDestructionFlushesQueue) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  BpWrapperCoordinator coord(std::move(owned), Opts(64, 32));
  {
    auto slot = coord.RegisterThread();
    coord.OnHit(slot.get(), 8, 0);
  }  // slot destroyed with one queued access
  EXPECT_EQ(policy->hits.size(), 1u);
}

TEST(BpWrapperTest, ThresholdClampedToQueueSize) {
  BpWrapperCoordinator coord(
      std::make_unique<LruPolicy>(4),
      Opts(/*queue=*/4, /*threshold=*/100));
  EXPECT_EQ(coord.options().batch_threshold, 4u);
  BpWrapperCoordinator zero(std::make_unique<LruPolicy>(4),
                            Opts(0, 0));
  EXPECT_EQ(zero.options().queue_size, 1u);
  EXPECT_EQ(zero.options().batch_threshold, 1u);
}

TEST(BpWrapperTest, PrefetchVariantBehavesIdentically) {
  auto run = [](bool prefetch) {
    auto owned = std::make_unique<RecordingPolicy>(16);
    RecordingPolicy* policy = owned.get();
    BpWrapperCoordinator coord(std::move(owned), Opts(8, 4, prefetch));
    auto slot = coord.RegisterThread();
    for (PageId p = 0; p < 20; ++p) coord.OnHit(slot.get(), p, 0);
    coord.FlushSlot(slot.get());
    return policy->hits;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(BpWrapperTest, ConcurrentThreadsAllCommitted) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  BpWrapperCoordinator coord(std::move(owned), Opts(16, 8));
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
}

TEST(BpWrapperTest, MissCommitsQueueFirst) {
  auto owned = std::make_unique<RecordingPolicy>(16);
  RecordingPolicy* policy = owned.get();
  BpWrapperCoordinator coord(std::move(owned), Opts(16, 10));
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
  BpWrapperCoordinator coord(std::move(owned), Opts(16, 10));
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
  BpWrapperCoordinator coord(std::move(owned), Opts(4, 2));
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
  BpWrapperCoordinator coord(std::move(owned), Opts(8, 4));
  auto slot = coord.RegisterThread();
  for (int i = 0; i < 12; ++i) {
    coord.OnHit(slot.get(), static_cast<PageId>(i), 0);
  }
  EXPECT_EQ(coord.commit_batches(), 3u);
  EXPECT_EQ(coord.committed_entries(), 12u);
}

TEST(BpWrapperTest, NameReflectsPrefetch) {
  BpWrapperCoordinator plain(std::make_unique<LruPolicy>(4), Opts(8, 4));
  EXPECT_EQ(plain.name(), "bp-wrapper");
  BpWrapperCoordinator pre(std::make_unique<LruPolicy>(4),
                           Opts(8, 4, /*prefetch=*/true));
  EXPECT_EQ(pre.name(), "bp-wrapper+pre");
}

}  // namespace
}  // namespace bpw
