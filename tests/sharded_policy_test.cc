// Tests for the sharded replacement path: the ShardedPolicy adapter (hash
// routing, per-shard full capacity, borrowing), the cross-shard
// conservation oracle that the stress and model-check layers reuse, the
// ShardedCoordinator's lock-free hit path (zero lock acquisitions,
// profiler-certified), and the seqlock hit-stamp protocol under concurrent
// stamping (the TSan row exercises this file).
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/coordinator_factory.h"
#include "core/sharded_coordinator.h"
#include "obs/contention_profiler.h"
#include "policy/policy_factory.h"
#include "policy/sharded_policy.h"
#include "workload/trace_generator.h"

namespace bpw {
namespace {

constexpr size_t kPageSize = 512;

// ---------------------------------------------------------------------------
// Routing

TEST(ShardedPolicyTest, ShardOfUsesThePageTableHashFamily) {
  // The home shard is the Fibonacci hash stream's high bits. Asserting the
  // exact formula here pins every shard assignment (and with it the
  // recorded sharded baselines).
  for (PageId page : {PageId{0}, PageId{1}, PageId{12345}, PageId{1} << 40}) {
    const uint64_t h = page * 0x9E3779B97F4A7C15ULL;
    for (size_t shards : {1, 2, 3, 8, 64}) {
      EXPECT_EQ(ShardedPolicy::ShardOf(page, shards),
                static_cast<size_t>(h >> 32) % shards);
    }
  }
}

TEST(ShardedPolicyTest, ShardOfSpreadsSequentialPages) {
  // Sequential page ids — the common table-scan layout — must not pile
  // onto one shard.
  constexpr size_t kShards = 8;
  std::vector<size_t> population(kShards, 0);
  for (PageId p = 0; p < 10000; ++p) {
    ++population[ShardedPolicy::ShardOf(p, kShards)];
  }
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(population[s], 10000u / kShards / 2)
        << "shard " << s << " is starved by the hash";
  }
}

// ---------------------------------------------------------------------------
// Adapter construction and pass-through

TEST(ShardedPolicyTest, CreateBuildsEveryKnownPolicy) {
  for (const std::string& name : KnownPolicies()) {
    for (size_t shards : {1, 3, 8}) {
      auto sharded = ShardedPolicy::Create(name, shards, 64);
      ASSERT_TRUE(sharded.ok())
          << name << " x" << shards << ": " << sharded.status().ToString();
      EXPECT_EQ(sharded.value()->shard_count(), shards);
      // Per-shard FULL capacity (skew-proofing; see sharded_policy.h).
      for (size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(sharded.value()->shard(s)->num_frames(), 64u);
      }
    }
  }
}

TEST(ShardedPolicyTest, RejectsUnknownInnerPolicy) {
  auto sharded = ShardedPolicy::Create("no-such-policy", 4, 64);
  EXPECT_FALSE(sharded.ok());
}

TEST(ShardedPolicyTest, SingleShardIsAPassThrough) {
  auto sharded_or = ShardedPolicy::Create("lru", 1, 4);
  auto plain_or = CreatePolicy("lru", 4);
  ASSERT_TRUE(sharded_or.ok());
  ASSERT_TRUE(plain_or.ok());
  ShardedPolicy* sharded = sharded_or.value().get();
  ReplacementPolicy* plain = plain_or.value().get();
  sharded->AssertExclusiveAccess();
  plain->AssertExclusiveAccess();

  for (PageId p = 0; p < 4; ++p) {
    sharded->OnMiss(p, static_cast<FrameId>(p));
    plain->OnMiss(p, static_cast<FrameId>(p));
  }
  sharded->OnHit(1, 1);
  plain->OnHit(1, 1);
  EXPECT_EQ(sharded->resident_count(), plain->resident_count());
  for (int i = 0; i < 4; ++i) {
    auto sv = sharded->ChooseVictim([](FrameId) { return true; }, 100 + i);
    auto pv = plain->ChooseVictim([](FrameId) { return true; }, 100 + i);
    ASSERT_TRUE(sv.ok());
    ASSERT_TRUE(pv.ok());
    EXPECT_EQ(sv->page, pv->page) << "victim order diverged at step " << i;
    EXPECT_EQ(sv->frame, pv->frame);
  }
}

TEST(ShardedPolicyTest, RoutingSendsEachPageToItsHomeShard) {
  auto sharded_or = ShardedPolicy::Create("lru", 4, 32);
  ASSERT_TRUE(sharded_or.ok());
  ShardedPolicy* sp = sharded_or.value().get();
  sp->AssertExclusiveAccess();
  for (PageId p = 0; p < 16; ++p) sp->OnMiss(p, static_cast<FrameId>(p));
  for (PageId p = 0; p < 16; ++p) {
    const size_t home = sp->ShardFor(p);
    for (size_t s = 0; s < sp->shard_count(); ++s) {
      sp->shard(s)->AssertExclusiveAccess();
      EXPECT_EQ(sp->shard(s)->IsResident(p), s == home)
          << "page " << p << " tracked by shard " << s << ", home " << home;
    }
  }
  EXPECT_EQ(sp->resident_count(), 16u) << "shard-sum must see every page";
}

TEST(ShardedPolicyTest, VictimSearchBorrowsWhenHomeShardIsEmpty) {
  auto sharded_or = ShardedPolicy::Create("lru", 4, 32);
  ASSERT_TRUE(sharded_or.ok());
  ShardedPolicy* sp = sharded_or.value().get();
  sp->AssertExclusiveAccess();
  // Fill only one shard's page population, then demand a victim for an
  // incoming page whose home shard is a DIFFERENT (empty) one: the global
  // frame supply is shared, so the search must borrow rather than fail.
  const PageId seed = 7;
  const size_t full_shard = sp->ShardFor(seed);
  std::vector<PageId> planted;
  for (PageId p = seed; planted.size() < 4; ++p) {
    if (sp->ShardFor(p) != full_shard) continue;
    sp->OnMiss(p, static_cast<FrameId>(planted.size()));
    planted.push_back(p);
  }
  PageId incoming = 0;
  while (sp->ShardFor(incoming) == full_shard) ++incoming;
  auto victim = sp->ChooseVictim([](FrameId) { return true; }, incoming);
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();
  EXPECT_EQ(victim->page, planted[0]) << "borrowed victim should be the "
                                         "full shard's own choice (LRU head)";
}

// ---------------------------------------------------------------------------
// The cross-shard conservation oracle

// Registers `count` pages into their home shards and returns the
// frame->page map the oracle audits against.
std::vector<PageId> Populate(ShardedPolicy* sp, size_t count) {
  sp->AssertExclusiveAccess();
  std::vector<PageId> frame_page(sp->num_frames(), kInvalidPageId);
  for (PageId p = 0; p < count; ++p) {
    sp->OnMiss(p, static_cast<FrameId>(p));
    frame_page[p] = p;
  }
  return frame_page;
}

Status Conservation(const ShardedPolicy* sp,
                    const std::vector<PageId>& frame_page) {
  sp->AssertExclusiveAccess();
  return sp->CheckShardConservation(
      [&frame_page](FrameId f) { return frame_page[f]; }, frame_page.size());
}

TEST(ShardConservationTest, CleanPopulationPasses) {
  auto sharded_or = ShardedPolicy::Create("2q", 4, 32);
  ASSERT_TRUE(sharded_or.ok());
  ShardedPolicy* sp = sharded_or.value().get();
  const auto frame_page = Populate(sp, 24);
  EXPECT_TRUE(Conservation(sp, frame_page).ok());
}

TEST(ShardConservationTest, DetectsDoubleTracking) {
  // The double-track bug: one page resident in two shards (what a
  // rebalance that migrates without unregistering would cause).
  auto sharded_or = ShardedPolicy::Create("2q", 4, 32);
  ASSERT_TRUE(sharded_or.ok());
  ShardedPolicy* sp = sharded_or.value().get();
  const auto frame_page = Populate(sp, 24);

  const PageId page = 5;
  const size_t wrong = (sp->ShardFor(page) + 1) % sp->shard_count();
  sp->shard(wrong)->AssertExclusiveAccess();
  sp->shard(wrong)->OnMiss(page, 5);

  const Status status = Conservation(sp, frame_page);
  ASSERT_FALSE(status.ok()) << "oracle missed a double-tracked page";
  EXPECT_NE(status.ToString().find("shard conservation"), std::string::npos)
      << status.ToString();
}

TEST(ShardConservationTest, DetectsResidencyInTheWrongShardOnly) {
  // The stale-shard bug: a page tracked by a NON-home shard and absent
  // from its home shard (counts still sum correctly — the per-page home
  // check must catch it, not just the sigma arm).
  auto sharded_or = ShardedPolicy::Create("lru", 4, 32);
  ASSERT_TRUE(sharded_or.ok());
  ShardedPolicy* sp = sharded_or.value().get();
  auto frame_page = Populate(sp, 24);

  const PageId page = 9;
  const size_t home = sp->ShardFor(page);
  const size_t wrong = (home + 1) % sp->shard_count();
  sp->shard(home)->AssertExclusiveAccess();
  sp->shard(home)->OnErase(page, 9);
  sp->shard(wrong)->AssertExclusiveAccess();
  sp->shard(wrong)->OnMiss(page, 9);

  const Status status = Conservation(sp, frame_page);
  ASSERT_FALSE(status.ok()) << "oracle missed a wrong-shard residency";
  EXPECT_NE(status.ToString().find("shard conservation"), std::string::npos)
      << status.ToString();
}

TEST(ShardConservationTest, DetectsUntrackedMappedPage) {
  auto sharded_or = ShardedPolicy::Create("lru", 4, 32);
  ASSERT_TRUE(sharded_or.ok());
  ShardedPolicy* sp = sharded_or.value().get();
  auto frame_page = Populate(sp, 24);
  // A frame the pool maps but no shard tracks (a lost page).
  frame_page[30] = 1000;
  const Status status = Conservation(sp, frame_page);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("shard conservation"), std::string::npos);
}

TEST(ShardConservationTest, GhostDisjointnessCatchesWrongShardGhosts) {
  // 2Q's kout list remembers evicted pages. Evict from the WRONG shard and
  // the ghost lands in that shard's kout — a page id no other shard may
  // ever ghost-track.
  auto sharded_or = ShardedPolicy::Create("2q", 4, 8);
  ASSERT_TRUE(sharded_or.ok());
  ShardedPolicy* sp = sharded_or.value().get();
  sp->AssertExclusiveAccess();
  EXPECT_TRUE(sp->CheckGhostDisjointness(64).ok());

  const PageId page = 3;
  const size_t wrong = (sp->ShardFor(page) + 1) % sp->shard_count();
  sp->shard(wrong)->AssertExclusiveAccess();
  sp->shard(wrong)->OnMiss(page, 0);
  PageId incoming = 40;  // force an eviction inside the wrong shard
  auto victim = sp->shard(wrong)->ChooseVictim([](FrameId) { return true; },
                                               incoming);
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(sp->shard(wrong)->IsGhostPage(page))
      << "test setup: 2Q eviction should have ghosted the page";
  EXPECT_FALSE(sp->CheckGhostDisjointness(64).ok())
      << "a ghost in a non-home shard must fail disjointness";
}

// ---------------------------------------------------------------------------
// Full pool runs across shard counts (conservation wired into
// CheckIntegrity via the coordinator's CheckQuiescedInvariants).

class ShardCountPoolTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardCountPoolTest, PoolRunsCleanAtThisShardCount) {
  const size_t shards = GetParam();
  WorkloadSpec workload;
  workload.name = "zipfian";
  workload.num_pages = 512;
  workload.seed = 11;

  StorageEngine storage(workload.num_pages, kPageSize);
  SystemConfig system;
  system.policy = "2q";
  system.coordinator = "sharded";
  system.policy_shards = shards;
  auto coordinator = CreateCoordinator(system, 128);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  auto* sharded =
      static_cast<ShardedCoordinator*>(coordinator.value().get());
  ASSERT_EQ(sharded->shard_count(), shards == 0 ? 1 : shards);

  BufferPoolConfig config;
  config.num_frames = 128;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());
  auto session = pool.CreateSession();
  auto trace = CreateTrace(workload, 0);
  for (int i = 0; i < 20000; ++i) {
    auto handle = pool.FetchPage(*session, trace->Next().page);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  }
  pool.FlushSession(*session);
  EXPECT_GT(session->stats().hits, 0u);
  // CheckIntegrity runs the cross-shard conservation oracle via
  // CheckQuiescedInvariants on this coordinator.
  const Status integrity = pool.CheckIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardCountPoolTest,
                         ::testing::Values(1, 2, 3, 4, 8, 64));

// ---------------------------------------------------------------------------
// The lock-free hit path

TEST(ShardedHitPathTest, HitsTakeZeroLockAcquisitions) {
  // Resident working set, multi-threaded hit storm: the coordinator's
  // aggregated shard-lock stats must not move at all. This is pgShard's
  // headline property — pgClock's lock-free hits, for ANY policy.
  constexpr size_t kFrames = 64;
  StorageEngine storage(kFrames, kPageSize);
  SystemConfig system;
  system.policy = "lirs";
  system.coordinator = "sharded";
  system.policy_shards = 4;
  system.queue_size = 1024;
  auto coordinator = CreateCoordinator(system, kFrames);
  ASSERT_TRUE(coordinator.ok());
  auto* sharded =
      static_cast<ShardedCoordinator*>(coordinator.value().get());

  BufferPoolConfig config;
  config.num_frames = kFrames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());

  {  // Warm every page in (misses lock; that is fine and expected).
    auto warm = pool.CreateSession();
    for (PageId p = 0; p < kFrames; ++p) {
      ASSERT_TRUE(pool.FetchPage(*warm, p).ok());
    }
    pool.FlushSession(*warm);
  }
  sharded->ResetLockStats();

  constexpr int kThreads = 4;
  // Sessions outlive the assertion below: destroying one flushes its rings
  // under shard locks — the lazy path, not the hit path being measured.
  std::vector<std::unique_ptr<BufferPool::Session>> sessions;
  for (int t = 0; t < kThreads; ++t) sessions.push_back(pool.CreateSession());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &sessions, t] {
      for (int i = 0; i < 20000; ++i) {
        const PageId page = static_cast<PageId>((i * 13 + t) % kFrames);
        auto handle = pool.FetchPage(*sessions[t], page);
        ASSERT_TRUE(handle.ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  const LockStats stats = sharded->lock_stats();
  EXPECT_EQ(stats.acquisitions, 0u)
      << "the hit path touched a shard lock " << stats.acquisitions
      << " times";
  EXPECT_EQ(stats.contentions, 0u);
  EXPECT_EQ(stats.trylock_failures, 0u);
}

TEST(ShardedHitPathTest, ProfilerShowsZeroHitPathLockEvents) {
  // Same property, certified through the contention profiler: after a
  // pure-hit phase the "sharded.shard_lock" site must have recorded zero
  // acquisitions of either kind.
  obs::SetProfilerEnabled(true);
  constexpr size_t kFrames = 32;
  StorageEngine storage(kFrames, kPageSize);
  SystemConfig system;
  system.policy = "2q";
  system.coordinator = "sharded";
  system.policy_shards = 2;
  auto coordinator = CreateCoordinator(system, kFrames);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = kFrames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());
  auto session = pool.CreateSession();
  for (PageId p = 0; p < kFrames; ++p) {
    ASSERT_TRUE(pool.FetchPage(*session, p).ok());
  }
  pool.FlushSession(*session);

  obs::ResetProfiler();  // zero the miss-phase acquisitions
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(pool.FetchPage(*session, i % kFrames).ok());
  }
  const obs::ProfSnapshot snap = obs::CollectProfSnapshot();
  const obs::ProfSiteSnapshot* row = snap.Find("sharded.shard_lock");
  if (row != nullptr) {
    EXPECT_EQ(row->uncontended, 0u) << "hit path acquired a shard lock";
    EXPECT_EQ(row->contended, 0u);
  }
  pool.FlushSession(*session);
  obs::SetProfilerEnabled(false);
}

// ---------------------------------------------------------------------------
// The seqlock hit stamp

TEST(ShardedStampTest, ReadStampReturnsTheLastHit) {
  auto sharded_or = ShardedPolicy::Create("lru", 2, 16);
  ASSERT_TRUE(sharded_or.ok());
  ShardedCoordinator coord(std::move(sharded_or).value(),
                           ShardedCoordinator::Options{});
  auto slot = coord.RegisterThread();

  PageId page = kInvalidPageId;
  uint64_t tick = 0;
  EXPECT_FALSE(coord.ReadStamp(3, &page, &tick)) << "never stamped";

  coord.OnHit(slot.get(), 42, 3);
  ASSERT_TRUE(coord.ReadStamp(3, &page, &tick));
  EXPECT_EQ(page, 42u);
  const uint64_t first_tick = tick;
  EXPECT_GT(first_tick, 0u);

  coord.OnHit(slot.get(), 43, 3);
  ASSERT_TRUE(coord.ReadStamp(3, &page, &tick));
  EXPECT_EQ(page, 43u);
  EXPECT_GT(tick, first_tick) << "ticks must advance";
  coord.FlushSlot(slot.get());
  EXPECT_TRUE(coord.CheckQuiescedInvariants().ok());
}

TEST(ShardedStampTest, VersionWraparoundCostsExactlyOneObservableWindow) {
  // The stamp version is a uint64_t that only ever moves by +1/+1 per
  // publish, so a real wrap needs 2^63 hits — the preload seam plants the
  // boundary instead. Claiming from the last even value (2^64 - 2) takes
  // the version to 2^64 - 1 (odd, claimed) and the publish wraps to 0.
  // Zero doubles as the never-stamped sentinel, so the wrap costs exactly
  // one unreadable window; the very next hit makes the frame readable
  // again with an untorn snapshot.
  auto sharded_or = ShardedPolicy::Create("lru", 2, 16);
  ASSERT_TRUE(sharded_or.ok());
  ShardedCoordinator coord(std::move(sharded_or).value(),
                           ShardedCoordinator::Options{});
  auto slot = coord.RegisterThread();

  const uint64_t kLastEven = ~uint64_t{0} - 1;  // 2^64 - 2
  coord.PreloadStampVersionForTest(3, kLastEven);

  coord.OnHit(slot.get(), 42, 3);  // publish store wraps the version to 0
  PageId page = kInvalidPageId;
  uint64_t tick = 0;
  EXPECT_FALSE(coord.ReadStamp(3, &page, &tick))
      << "version 0 must read as never-stamped, not as a torn snapshot";

  coord.OnHit(slot.get(), 43, 3);  // 0 -> 1 (claim) -> 2 (publish)
  ASSERT_TRUE(coord.ReadStamp(3, &page, &tick));
  EXPECT_EQ(page, 43u);
  EXPECT_GT(tick, 0u);

  coord.FlushSlot(slot.get());
  EXPECT_TRUE(coord.CheckQuiescedInvariants().ok())
      << "no stamp may be left odd after the wrap exercise";
}

TEST(ShardedStampTest, AbandonedOddWriterNeverBlocksHitsOrReaders) {
  // An odd version with no live writer (a thread died mid-publish, or a
  // test plants it) must never make StampHit wait or ReadStamp spin
  // forever: the hit path skips the claim, the reader's bounded retry
  // gives up, and other frames are untouched.
  auto sharded_or = ShardedPolicy::Create("lru", 2, 16);
  ASSERT_TRUE(sharded_or.ok());
  ShardedCoordinator coord(std::move(sharded_or).value(),
                           ShardedCoordinator::Options{});
  auto slot = coord.RegisterThread();

  coord.PreloadStampVersionForTest(3, 7);  // odd: claimed, never published
  coord.OnHit(slot.get(), 42, 3);          // must skip the stamp, not spin
  PageId page = kInvalidPageId;
  uint64_t tick = 0;
  EXPECT_FALSE(coord.ReadStamp(3, &page, &tick))
      << "bounded retry must give up on a stuck-odd stamp";

  coord.OnHit(slot.get(), 99, 4);  // a neighbouring frame is unaffected
  ASSERT_TRUE(coord.ReadStamp(4, &page, &tick));
  EXPECT_EQ(page, 99u);

  // Un-stick the planted stamp so the quiesced invariant (no odd
  // versions) can certify the rest of the coordinator.
  coord.PreloadStampVersionForTest(3, 8);
  coord.FlushSlot(slot.get());
  EXPECT_TRUE(coord.CheckQuiescedInvariants().ok());
}

TEST(ShardedStampTest, ConcurrentStampingStaysConsistent) {
  // The atomic-stamp stress row (runs under TSan in CI): writers hammer
  // OnHit on a few shared frames while readers snapshot stamps. Every
  // successful read must be a (page, tick) pair some writer actually
  // published — the seqlock forbids mixing two writers' payloads.
  constexpr size_t kFrames = 4;
  constexpr int kWriters = 4;
  constexpr int kIters = 20000;
  auto sharded_or = ShardedPolicy::Create("lru", 2, kFrames);
  ASSERT_TRUE(sharded_or.ok());
  ShardedCoordinator::Options options;
  options.queue_size = 8;  // tiny ring: constant drop-oldest churn too
  ShardedCoordinator coord(std::move(sharded_or).value(), options);

  // Writer t stamps frame f with pages in t's private range; a consistent
  // snapshot therefore has page/1000 == the tick's writer... too strong
  // (ticks are global). Instead: page encodes (writer, seq) and any
  // observed pair must simply be one that was genuinely written.
  // The writers hold off until the reader is running: on a small host the
  // whole write burst can otherwise finish before the reader is scheduled.
  std::atomic<bool> stop{false};
  std::latch reader_started(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&coord, &reader_started, t] {
      auto slot = coord.RegisterThread();
      reader_started.wait();
      for (int i = 0; i < kIters; ++i) {
        const FrameId frame = static_cast<FrameId>(i % kFrames);
        const PageId page = static_cast<PageId>(t) * 1000000 + i;
        coord.OnHit(slot.get(), page, frame);
      }
      coord.FlushSlot(slot.get());
    });
  }
  threads.emplace_back([&coord, &stop, &reader_started] {
    uint64_t reads = 0;
    auto check = [&reads](PageId page, uint64_t tick) {
      ++reads;
      // A published page is always writer*1000000 + i with i < kIters.
      EXPECT_LT(page % 1000000, static_cast<PageId>(kIters));
      EXPECT_LT(page / 1000000, static_cast<PageId>(kWriters));
      EXPECT_GT(tick, 0u);
    };
    reader_started.count_down();
    while (!stop.load(std::memory_order_acquire)) {
      for (FrameId f = 0; f < kFrames; ++f) {
        PageId page = kInvalidPageId;
        uint64_t tick = 0;
        if (!coord.ReadStamp(f, &page, &tick)) continue;
        check(page, tick);
      }
    }
    // The writers are done: no stamp is mid-write, so every read succeeds.
    for (FrameId f = 0; f < kFrames; ++f) {
      PageId page = kInvalidPageId;
      uint64_t tick = 0;
      EXPECT_TRUE(coord.ReadStamp(f, &page, &tick)) << "frame " << f;
      check(page, tick);
    }
    EXPECT_GT(reads, 0u);
  });
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  // Quiesced: no stamp may be left in a torn (odd-version) state.
  EXPECT_TRUE(coord.CheckQuiescedInvariants().ok());
}

}  // namespace
}  // namespace bpw
