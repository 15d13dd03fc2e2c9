// Single-threaded functional tests for the buffer pool: hit/miss paths,
// pinning, eviction, dirty write-back, drop, and integrity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/coordinator_factory.h"
#include "core/serialized_coordinator.h"
#include "obs/metrics.h"
#include "policy/lru.h"
#include "testing/fault_injector.h"

namespace bpw {
namespace {

constexpr size_t kPageSize = 1024;

std::unique_ptr<BufferPool> MakePool(StorageEngine* storage,
                                     size_t num_frames) {
  BufferPoolConfig config;
  config.num_frames = num_frames;
  config.page_size = kPageSize;
  auto coordinator = std::make_unique<SerializedCoordinator>(
      std::make_unique<LruPolicy>(num_frames));
  return std::make_unique<BufferPool>(config, storage,
                                      std::move(coordinator));
}

TEST(BufferPoolTest, FirstFetchIsMissSecondIsHit) {
  StorageEngine storage(64, kPageSize);
  auto pool = MakePool(&storage, 8);
  auto session = pool->CreateSession();

  auto h1 = pool->FetchPage(*session, 5);
  ASSERT_TRUE(h1.ok()) << h1.status().ToString();
  h1.value().Release();
  EXPECT_EQ(session->stats().misses, 1u);
  EXPECT_EQ(session->stats().hits, 0u);

  auto h2 = pool->FetchPage(*session, 5);
  ASSERT_TRUE(h2.ok());
  h2.value().Release();
  EXPECT_EQ(session->stats().hits, 1u);
}

TEST(BufferPoolTest, FetchReadsStorageContent) {
  StorageEngine storage(64, kPageSize);
  auto pool = MakePool(&storage, 8);
  auto session = pool->CreateSession();
  auto handle = pool->FetchPage(*session, 9);
  ASSERT_TRUE(handle.ok());
  auto [word, version] = StorageEngine::ReadStamp(handle.value().data());
  EXPECT_EQ(version, 0u);
  EXPECT_EQ(word, storage.VerificationWord(9));
}

TEST(BufferPoolTest, InvalidPageRejected) {
  StorageEngine storage(16, kPageSize);
  auto pool = MakePool(&storage, 8);
  auto session = pool->CreateSession();
  auto handle = pool->FetchPage(*session, 999);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
}

TEST(BufferPoolTest, EvictionHappensWhenFull) {
  StorageEngine storage(64, kPageSize);
  auto pool = MakePool(&storage, 4);
  auto session = pool->CreateSession();
  for (PageId p = 0; p < 8; ++p) {
    auto handle = pool->FetchPage(*session, p);
    ASSERT_TRUE(handle.ok()) << "page " << p;
  }
  EXPECT_EQ(session->stats().misses, 8u);
  EXPECT_EQ(pool->evictions(), 4u);
  EXPECT_TRUE(pool->CheckIntegrity().ok());
  // LRU: pages 4..7 resident; page 0 must re-miss.
  session->ResetStats();
  auto handle = pool->FetchPage(*session, 0);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(session->stats().misses, 1u);
}

TEST(BufferPoolTest, PinnedPageIsNotEvicted) {
  StorageEngine storage(64, kPageSize);
  auto pool = MakePool(&storage, 2);
  auto session = pool->CreateSession();
  auto pinned = pool->FetchPage(*session, 0);
  ASSERT_TRUE(pinned.ok());
  // Fill and churn the other frame repeatedly.
  for (PageId p = 1; p < 6; ++p) {
    auto h = pool->FetchPage(*session, p);
    ASSERT_TRUE(h.ok());
  }
  // Page 0 must still be a hit (it was pinned the whole time).
  session->ResetStats();
  auto again = pool->FetchPage(*session, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(session->stats().hits, 1u);
  pinned.value().Release();
}

TEST(BufferPoolTest, AllPinnedFetchFails) {
  StorageEngine storage(64, kPageSize);
  BufferPoolConfig config;
  config.num_frames = 2;
  config.page_size = kPageSize;
  config.eviction_retries = 2;  // few retries before the full-pool check
  auto pool = std::make_unique<BufferPool>(
      config, &storage,
      std::make_unique<SerializedCoordinator>(std::make_unique<LruPolicy>(2)));
  auto session = pool->CreateSession();
  auto h0 = pool->FetchPage(*session, 0);
  auto h1 = pool->FetchPage(*session, 1);
  ASSERT_TRUE(h0.ok());
  ASSERT_TRUE(h1.ok());
  // Every frame is pinned, and by this thread: nothing will come free, so
  // after the bounded back-pressure wait the pool reports itself full.
  auto h2 = pool->FetchPage(*session, 2);
  ASSERT_FALSE(h2.ok());
  EXPECT_EQ(h2.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool->pinned_frames(), 2u);
  h0.value().Release();
  h1.value().Release();
  // After releasing, the fetch succeeds.
  auto h3 = pool->FetchPage(*session, 2);
  EXPECT_TRUE(h3.ok());
}

TEST(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  StorageEngine storage(64, kPageSize);
  auto pool = MakePool(&storage, 2);
  auto session = pool->CreateSession();
  {
    auto handle = pool->FetchPage(*session, 3);
    ASSERT_TRUE(handle.ok());
    StorageEngine::StampPage(handle.value().data(), kPageSize, 3, 77);
    handle.value().MarkDirty();
  }
  // Evict page 3 by filling the pool.
  for (PageId p = 10; p < 14; ++p) {
    auto h = pool->FetchPage(*session, p);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_GE(pool->writebacks(), 1u);
  // Re-fetch page 3: the stamped version must come back from storage.
  auto handle = pool->FetchPage(*session, 3);
  ASSERT_TRUE(handle.ok());
  auto [word, version] = StorageEngine::ReadStamp(handle.value().data());
  EXPECT_EQ(version, 77u);
}

TEST(BufferPoolTest, CleanPageNotWrittenBack) {
  StorageEngine storage(64, kPageSize);
  auto pool = MakePool(&storage, 2);
  auto session = pool->CreateSession();
  for (PageId p = 0; p < 6; ++p) {
    auto h = pool->FetchPage(*session, p);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(pool->writebacks(), 0u);
  EXPECT_EQ(storage.stats().writes, 0u);
}

TEST(BufferPoolTest, FlushAllPersistsDirtyPages) {
  StorageEngine storage(64, kPageSize);
  auto pool = MakePool(&storage, 4);
  auto session = pool->CreateSession();
  for (PageId p = 0; p < 3; ++p) {
    auto handle = pool->FetchPage(*session, p);
    ASSERT_TRUE(handle.ok());
    StorageEngine::StampPage(handle.value().data(), kPageSize, p, 100 + p);
    handle.value().MarkDirty();
  }
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(storage.stats().writes, 3u);
  for (PageId p = 0; p < 3; ++p) {
    EXPECT_EQ(storage.VerificationWord(p),
              p * 0x9E3779B97F4A7C15ULL + (100 + p));
  }
  // Second flush: nothing dirty anymore.
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_EQ(storage.stats().writes, 3u);
}

TEST(BufferPoolTest, DropPageRemovesMapping) {
  StorageEngine storage(64, kPageSize);
  auto pool = MakePool(&storage, 4);
  auto session = pool->CreateSession();
  {
    auto h = pool->FetchPage(*session, 1);
    ASSERT_TRUE(h.ok());
  }
  ASSERT_TRUE(pool->DropPage(*session, 1).ok());
  EXPECT_TRUE(pool->CheckIntegrity().ok());
  session->ResetStats();
  auto h = pool->FetchPage(*session, 1);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(session->stats().misses, 1u) << "dropped page must re-miss";
}

TEST(BufferPoolTest, DropPinnedPageFails) {
  StorageEngine storage(64, kPageSize);
  auto pool = MakePool(&storage, 4);
  auto session = pool->CreateSession();
  auto h = pool->FetchPage(*session, 1);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(pool->DropPage(*session, 1).code(),
            StatusCode::kFailedPrecondition);
  h.value().Release();
  EXPECT_TRUE(pool->DropPage(*session, 1).ok());
}

TEST(BufferPoolTest, DropUnknownPageIsNotFound) {
  StorageEngine storage(64, kPageSize);
  auto pool = MakePool(&storage, 4);
  auto session = pool->CreateSession();
  EXPECT_TRUE(pool->DropPage(*session, 5).IsNotFound());
}

TEST(BufferPoolTest, HandleMoveSemantics) {
  StorageEngine storage(64, kPageSize);
  auto pool = MakePool(&storage, 4);
  auto session = pool->CreateSession();
  auto h1 = pool->FetchPage(*session, 2);
  ASSERT_TRUE(h1.ok());
  PageHandle moved = std::move(h1.value());
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(moved.page(), 2u);
  PageHandle assigned;
  assigned = std::move(moved);
  EXPECT_FALSE(moved.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(assigned.valid());
  assigned.Release();
  EXPECT_FALSE(assigned.valid());
  // Pin count must be zero now: the page is evictable.
  EXPECT_TRUE(pool->DropPage(*session, 2).ok());
}

TEST(BufferPoolTest, PrewarmLoadsSequentialPages) {
  StorageEngine storage(64, kPageSize);
  auto pool = MakePool(&storage, 16);
  auto session = pool->CreateSession();
  ASSERT_TRUE(pool->Prewarm(*session, 0, 16).ok());
  session->ResetStats();
  for (PageId p = 0; p < 16; ++p) {
    auto h = pool->FetchPage(*session, p);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(session->stats().hits, 16u);
  EXPECT_EQ(session->stats().misses, 0u);
}

TEST(BufferPoolTest, IntegrityAfterChurn) {
  StorageEngine storage(256, kPageSize);
  auto pool = MakePool(&storage, 16);
  auto session = pool->CreateSession();
  Random rng(3);
  for (int i = 0; i < 5000; ++i) {
    const PageId p = rng.Uniform(256);
    auto h = pool->FetchPage(*session, p);
    ASSERT_TRUE(h.ok());
    if (rng.Bernoulli(0.3)) h.value().MarkDirty();
  }
  EXPECT_TRUE(pool->CheckIntegrity().ok())
      << pool->CheckIntegrity().ToString();
  EXPECT_TRUE(pool->FlushAll().ok());
}

TEST(BufferPoolTest, FailedReadEndsTheLoad) {
  // A read the fault injector fails must give the page's load up: the
  // table holds no loading sentinel afterwards, and the next fetch of the
  // page loads it.
  StorageEngine storage(16, kPageSize);
  testing::FaultPlan plan;
  plan.read_error_probability = 1.0;
  testing::FaultInjector injector(plan);
  storage.SetFaultInjector(&injector);
  auto pool = MakePool(&storage, 4);
  auto session = pool->CreateSession();

  auto failed = pool->FetchPage(*session, 3);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  EXPECT_TRUE(pool->DropPage(*session, 3).IsNotFound())
      << "a failed load must not leave the page mapped or loading";
  EXPECT_TRUE(pool->CheckIntegrity().ok()) << pool->CheckIntegrity().ToString();
  EXPECT_EQ(session->stats().misses, 0u) << "a failed load is not a miss";

  storage.SetFaultInjector(nullptr);
  auto loaded = pool->FetchPage(*session, 3);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto [word, version] = StorageEngine::ReadStamp(loaded->data());
  EXPECT_EQ(word, 3 * 0x9E3779B97F4A7C15ULL + version);
  EXPECT_EQ(session->stats().misses, 1u);
  loaded.value().Release();
  EXPECT_TRUE(pool->CheckIntegrity().ok()) << pool->CheckIntegrity().ToString();
}

TEST(BufferPoolTest, RegistryCountersAreTheSessionTotalsAndStayMonotone) {
  // buffer.* and coord.* are summed from per-session and per-slot
  // counters at snapshot time; destroying sessions (and with them the
  // BP-Wrapper slots) must fold their counts into the totals, not drop
  // them.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const obs::MetricsSnapshot before = registry.Snapshot();
  StorageEngine storage(64, kPageSize);
  auto system = PaperSystemConfig("pgBatPre");
  ASSERT_TRUE(system.ok());
  auto coordinator = CreateCoordinator(system.value(), 8);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = 8;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());

  std::vector<std::unique_ptr<BufferPool::Session>> sessions;
  for (int t = 0; t < 2; ++t) sessions.push_back(pool.CreateSession());
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&pool, &sessions, t] {
      Random rng(40 + t);
      for (int i = 0; i < 3000; ++i) {
        auto handle = pool.FetchPage(*sessions[t], rng.Uniform(20));
        ASSERT_TRUE(handle.ok());
        if (rng.Bernoulli(0.2)) handle.value().MarkDirty();
      }
    });
  }
  for (auto& th : threads) th.join();

  auto delta = [&] { return registry.Snapshot().DeltaFrom(before); };
  const obs::MetricsSnapshot live = delta();
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const auto& session : sessions) {
    hits += session->stats().hits;
    misses += session->stats().misses;
  }
  EXPECT_EQ(hits + misses, 6000u);
  EXPECT_EQ(live.value("buffer.hits"), static_cast<double>(hits));
  EXPECT_EQ(live.value("buffer.misses"), static_cast<double>(misses));
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_GT(pool.writebacks(), 0u);
  EXPECT_EQ(live.value("buffer.evictions"),
            static_cast<double>(pool.evictions()));
  EXPECT_EQ(live.value("buffer.writebacks"),
            static_cast<double>(pool.writebacks()));
  EXPECT_GT(live.value("coord.committed_entries"), 0.0);

  sessions.clear();  // retires the sessions and their coordinator slots
  const obs::MetricsSnapshot retired = delta();
  for (const char* name : {"buffer.hits", "buffer.misses", "buffer.evictions",
                           "buffer.writebacks"}) {
    EXPECT_EQ(retired.value(name), live.value(name)) << name;
  }
  // Destroying a slot commits what it still queued: the commit counters
  // can only grow.
  for (const char* name : {"coord.commit_batches", "coord.committed_entries",
                           "coord.stale_commits"}) {
    EXPECT_GE(retired.value(name), live.value(name)) << name;
  }

  auto session = pool.CreateSession();
  ASSERT_TRUE(pool.FetchPage(*session, 0).ok());
  const obs::MetricsSnapshot more = delta();
  EXPECT_EQ(more.value("buffer.hits") + more.value("buffer.misses"),
            retired.value("buffer.hits") + retired.value("buffer.misses") + 1);
}


TEST(FrameArenaTest, FramesAreAlignedAndDisjointForEveryArenaSize) {
  // Arenas under one huge page, of exact 2 MiB multiples, and of sizes that
  // are not a multiple. Fails under an arena that rounds its size down to
  // whole huge pages (the last frames fall outside the mapping), and under
  // one that keeps the unaligned head of its over-sized mapping (frame 0 is
  // then not 2 MiB-aligned).
  constexpr size_t kFramePage = 4096;
  constexpr uintptr_t kHugePage = uintptr_t{2} << 20;
  for (const size_t frames : {size_t{8}, size_t{512}, size_t{1024},
                              size_t{700}}) {
    SCOPED_TRACE(std::to_string(frames) + " frames");
    StorageEngine storage(frames, kFramePage);
    BufferPoolConfig config;
    config.num_frames = frames;
    config.page_size = kFramePage;
    BufferPool pool(config, &storage,
                    std::make_unique<SerializedCoordinator>(
                        std::make_unique<LruPolicy>(frames)));
    auto session = pool.CreateSession();
    std::vector<PageHandle> handles;
    for (PageId page = 0; page < frames; ++page) {
      auto handle = pool.FetchPage(*session, page);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      handles.push_back(std::move(handle).value());
    }
    std::vector<uintptr_t> starts;
    for (PageHandle& handle : handles) {
      const uintptr_t start = reinterpret_cast<uintptr_t>(handle.data());
      EXPECT_EQ(start % kFramePage, 0u);
      if (handle.frame() == 0) {
        EXPECT_EQ(start % kHugePage, 0u);
      }
      starts.push_back(start);
      // Fill the page past its stamp; a frame overlapping another would
      // overwrite that frame's stamp or fill.
      std::memset(handle.data() + 64, static_cast<int>(handle.page() & 0xff),
                  kFramePage - 64);
    }
    std::sort(starts.begin(), starts.end());
    for (size_t i = 1; i < starts.size(); ++i) {
      EXPECT_GE(starts[i] - starts[i - 1], kFramePage);
    }
    for (PageHandle& handle : handles) {
      const auto [word, version] = StorageEngine::ReadStamp(handle.data());
      EXPECT_EQ(word, handle.page() * 0x9E3779B97F4A7C15ULL + version);
      EXPECT_EQ(handle.data()[kFramePage - 1],
                static_cast<uint8_t>(handle.page() & 0xff));
    }
  }
}

}  // namespace
}  // namespace bpw
