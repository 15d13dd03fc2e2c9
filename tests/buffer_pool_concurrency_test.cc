// Multi-threaded stress tests of the buffer pool: integrity under
// concurrent hits, misses, evictions, dirty write-backs, and pins — for
// each coordinator kind — plus deterministic interleavings of the
// lock-free pin protocol, forced through its schedule points.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/coordinator_factory.h"
#include "testing/schedule_point.h"
#include "util/random.h"

namespace bpw {
namespace {

constexpr size_t kPageSize = 512;

struct StressParams {
  std::string system;   // paper system name
  size_t num_frames;
  uint64_t num_pages;
};

class PoolStressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PoolStressTest, ConcurrentChurnKeepsIntegrity) {
  auto system = PaperSystemConfig(GetParam());
  ASSERT_TRUE(system.ok());

  constexpr size_t kFrames = 64;
  constexpr uint64_t kPages = 256;
  StorageEngine storage(kPages, kPageSize);
  auto coordinator = CreateCoordinator(system.value(), kFrames);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = kFrames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 8000;
  std::atomic<uint64_t> total_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &total_errors, t] {
      auto session = pool.CreateSession();
      Random rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const PageId page = rng.Bernoulli(0.6) ? rng.Uniform(32)
                                               : rng.Uniform(kPages);
        auto handle = pool.FetchPage(*session, page);
        if (!handle.ok()) {
          total_errors.fetch_add(1);
          continue;
        }
        // Verify the frame really holds this page's data.
        auto [word, version] = StorageEngine::ReadStamp(handle.value().data());
        if (word != version + page * 0x9E3779B97F4A7C15ULL) {
          total_errors.fetch_add(1);
        }
        if (rng.Bernoulli(0.2)) handle.value().MarkDirty();
      }
      pool.FlushSession(*session);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total_errors.load(), 0u);
  auto session = pool.CreateSession();
  EXPECT_TRUE(pool.CheckIntegrity().ok())
      << pool.CheckIntegrity().ToString();
}

TEST_P(PoolStressTest, DirtyWritesAreNeverLost) {
  // Each page is written by exactly one thread with ascending versions;
  // after a full flush, storage must hold each page's latest version.
  auto system = PaperSystemConfig(GetParam());
  ASSERT_TRUE(system.ok());

  constexpr size_t kFrames = 32;
  constexpr uint64_t kPages = 128;
  StorageEngine storage(kPages, kPageSize);
  auto coordinator = CreateCoordinator(system.value(), kFrames);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = kFrames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());

  constexpr int kThreads = 4;
  constexpr uint64_t kRounds = 400;
  std::vector<std::vector<uint64_t>> latest(
      kThreads, std::vector<uint64_t>(kPages / kThreads, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = pool.CreateSession();
      Random rng(77 + t);
      const PageId base = static_cast<PageId>(t) * (kPages / kThreads);
      for (uint64_t round = 1; round <= kRounds; ++round) {
        const uint64_t idx = rng.Uniform(kPages / kThreads);
        const PageId page = base + idx;
        auto handle = pool.FetchPage(*session, page);
        ASSERT_TRUE(handle.ok());
        StorageEngine::StampPage(handle.value().data(), kPageSize, page,
                                 round);
        handle.value().MarkDirty();
        latest[t][idx] = round;
      }
      pool.FlushSession(*session);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(pool.FlushAll().ok());
  for (int t = 0; t < kThreads; ++t) {
    const PageId base = static_cast<PageId>(t) * (kPages / kThreads);
    for (uint64_t idx = 0; idx < kPages / kThreads; ++idx) {
      if (latest[t][idx] == 0) continue;
      const PageId page = base + idx;
      EXPECT_EQ(storage.VerificationWord(page),
                page * 0x9E3779B97F4A7C15ULL + latest[t][idx])
          << "lost update on page " << page;
    }
  }
}

TEST_P(PoolStressTest, SameHotPageFromAllThreads) {
  auto system = PaperSystemConfig(GetParam());
  ASSERT_TRUE(system.ok());
  constexpr size_t kFrames = 4;
  StorageEngine storage(64, kPageSize);
  auto coordinator = CreateCoordinator(system.value(), kFrames);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = kFrames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());

  std::vector<std::thread> threads;
  std::atomic<uint64_t> errors{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&pool, &errors] {
      auto session = pool.CreateSession();
      for (int i = 0; i < 5000; ++i) {
        auto handle = pool.FetchPage(*session, 7);
        if (!handle.ok()) errors.fetch_add(1);
      }
      pool.FlushSession(*session);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_TRUE(pool.CheckIntegrity().ok());
}

INSTANTIATE_TEST_SUITE_P(AllSystems, PoolStressTest,
                         ::testing::Values("pgClock", "pg2Q", "pgPre",
                                           "pgBat", "pgBatPre"));

TEST(PoolConcurrencyTest, SingleFlightLoadsOncePerPage) {
  // Many threads fault the same cold page simultaneously; storage must see
  // exactly one read.
  StorageEngine storage(16, kPageSize);
  SystemConfig system;
  system.policy = "lru";
  system.coordinator = "serialized";
  auto coordinator = CreateCoordinator(system, 8);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = 8;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto session = pool.CreateSession();
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      auto handle = pool.FetchPage(*session, 3);
      EXPECT_TRUE(handle.ok());
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(storage.stats().reads, 1u)
      << "duplicate I/O for concurrently-faulted page";
}

TEST(PoolConcurrencyTest, DropPageBeyondStorageIsAnError) {
  // The page table is a dense array indexed by page id: an id past the
  // storage must be refused, not used as an index.
  StorageEngine storage(16, kPageSize);
  SystemConfig system;
  system.policy = "lru";
  system.coordinator = "serialized";
  auto coordinator = CreateCoordinator(system, 4);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = 4;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());
  auto session = pool.CreateSession();

  const Status past_end = pool.DropPage(*session, 16);
  EXPECT_EQ(past_end.code(), StatusCode::kInvalidArgument)
      << past_end.ToString();
  const Status far = pool.DropPage(*session, kInvalidPageId);
  EXPECT_EQ(far.code(), StatusCode::kInvalidArgument) << far.ToString();
  EXPECT_EQ(pool.FetchPage(*session, 16).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(pool.DropPage(*session, 15).IsNotFound());
  EXPECT_TRUE(pool.CheckIntegrity().ok());
}

TEST(PoolConcurrencyTest, MissBlockedByAnotherThreadsPinsWaits) {
  // Back-pressure, not an error: both frames are pinned by this thread's
  // live handles, and another thread's miss must wait for one to be
  // released rather than fail after its (deliberately few) retries.
  StorageEngine storage(8, kPageSize);
  SystemConfig system;
  system.policy = "lru";
  system.coordinator = "serialized";
  auto coordinator = CreateCoordinator(system, 2);
  ASSERT_TRUE(coordinator.ok());
  BufferPoolConfig config;
  config.num_frames = 2;
  config.page_size = kPageSize;
  config.eviction_retries = 2;
  BufferPool pool(config, &storage, std::move(coordinator).value());
  auto session = pool.CreateSession();
  auto h0 = pool.FetchPage(*session, 0);
  auto h1 = pool.FetchPage(*session, 1);
  ASSERT_TRUE(h0.ok());
  ASSERT_TRUE(h1.ok());
  EXPECT_EQ(pool.pinned_frames(), 2u);

  Status waiter_status;
  std::thread waiter([&pool, &waiter_status] {
    auto waiter_session = pool.CreateSession();
    auto handle = pool.FetchPage(*waiter_session, 5);
    waiter_status = handle.status();
    if (handle.ok()) {
      const auto [word, version] = StorageEngine::ReadStamp(handle->data());
      if (word != 5 * 0x9E3779B97F4A7C15ULL + version) {
        waiter_status = Status::Corruption("foreign bytes");
      }
    }
  });
  // Well inside the ~100 ms a pool must stay fully pinned to be exhausted.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  h0.value().Release();
  waiter.join();
  EXPECT_TRUE(waiter_status.ok()) << waiter_status.ToString();
  h1.value().Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_TRUE(pool.CheckIntegrity().ok());
}

#if BPW_SCHEDULE_POINTS

// Parks the one thread that called Gate() at a chosen schedule point until
// the test resumes it; every other thread and point passes straight
// through. This pins one exact interleaving of the pin protocol instead of
// hoping a stress run finds it.
class PointGate : public testing::ScheduleController {
 public:
  PointGate() { Install(); }
  ~PointGate() override { Uninstall(); }

  /// Makes the calling thread the gated one.
  static void Gate() { gated_ = true; }

  void StopAt(const char* point) {
    std::lock_guard<std::mutex> lock(mu_);
    stop_at_ = point;
  }

  /// Blocks until the gated thread is parked at the stop point.
  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }

  /// Releases the parked thread; it stops next at `next` (nullptr: never).
  void Resume(const char* next) {
    std::lock_guard<std::mutex> lock(mu_);
    stop_at_ = next;
    parked_ = false;
    cv_.notify_all();
  }

  /// Times the gated thread passed `point`.
  int passes(const std::string& point) {
    std::lock_guard<std::mutex> lock(mu_);
    int n = 0;
    for (const std::string& seen : seen_) n += seen == point ? 1 : 0;
    return n;
  }

  void Perturb(const char* point, const void* /*obj*/) override {
    if (!gated_) return;
    std::unique_lock<std::mutex> lock(mu_);
    seen_.emplace_back(point);
    if (stop_at_ == nullptr || std::strcmp(point, stop_at_) != 0) return;
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !parked_; });
  }

 private:
  static thread_local bool gated_;
  std::mutex mu_;
  std::condition_variable cv_;
  const char* stop_at_ = nullptr;
  bool parked_ = false;
  std::vector<std::string> seen_;
};

thread_local bool PointGate::gated_ = false;

// Two frames, LRU under the serialized coordinator: victim choice is
// deterministic, and frames come off the free list lowest id first.
struct TwoFramePool {
  StorageEngine storage{8, kPageSize};
  std::unique_ptr<BufferPool> pool;

  TwoFramePool() {
    SystemConfig system;
    system.policy = "lru";
    system.coordinator = "serialized";
    auto coordinator = CreateCoordinator(system, 2);
    EXPECT_TRUE(coordinator.ok());
    BufferPoolConfig config;
    config.num_frames = 2;
    config.page_size = kPageSize;
    pool = std::make_unique<BufferPool>(config, &storage,
                                        std::move(coordinator).value());
  }
};

bool HoldsPage(const PageHandle& handle, PageId page) {
  const auto [word, version] = StorageEngine::ReadStamp(handle.data());
  return word == page * 0x9E3779B97F4A7C15ULL + version;
}

struct StaleFetch {
  bool ok = false;
  FrameId frame = kInvalidFrameId;
  bool right_bytes = false;
  AccessStats stats;
};

// Fetches `page` on a gated thread that first parks at pool.try_pin —
// right after its table lookup, before it pins.
std::thread StartStaleFetch(BufferPool& pool, BufferPool::Session& session,
                            PageId page, StaleFetch& out) {
  return std::thread([&pool, &session, page, &out] {
    PointGate::Gate();
    auto handle = pool.FetchPage(session, page);
    out.ok = handle.ok();
    if (handle.ok()) {
      out.frame = handle.value().frame();
      out.right_bytes = HoldsPage(handle.value(), page);
    }
    out.stats = session.stats();
  });
}

TEST(PinProtocolTest, FrameReusedBetweenLookupAndPinIsRetried) {
  TwoFramePool fixture;
  BufferPool& pool = *fixture.pool;
  auto main_session = pool.CreateSession();
  auto stale_session = pool.CreateSession();
  ASSERT_TRUE(pool.FetchPage(*main_session, 1).ok());  // frame 0, LRU head
  ASSERT_TRUE(pool.FetchPage(*main_session, 3).ok());  // frame 1

  PointGate gate;
  gate.StopAt("pool.try_pin");
  StaleFetch stale;
  std::thread stale_thread = StartStaleFetch(pool, *stale_session, 1, stale);
  gate.WaitParked();  // looked up page 1 -> frame 0, not pinned yet

  // Evict page 1 and re-use its frame for page 2, pinned meanwhile.
  auto reused = pool.FetchPage(*main_session, 2);
  ASSERT_TRUE(reused.ok()) << reused.status().ToString();
  ASSERT_EQ(reused.value().frame(), 0u) << "page 1's frame was not re-used";

  gate.Resume(nullptr);
  stale_thread.join();

  // The stale thread pinned frame 0, saw page 2's tag, dropped the pin and
  // retried as a miss: page 1 now lives in frame 1, with page 1's bytes.
  EXPECT_EQ(gate.passes("pool.pin_validate"), 1);
  ASSERT_TRUE(stale.ok);
  EXPECT_EQ(stale.frame, 1u);
  EXPECT_TRUE(stale.right_bytes) << "handle carries another page's stamp";
  EXPECT_EQ(stale.stats.hits, 0u);
  EXPECT_EQ(stale.stats.misses, 1u);
  EXPECT_TRUE(HoldsPage(reused.value(), 2));
  reused.value().Release();
  EXPECT_TRUE(pool.CheckIntegrity().ok()) << pool.CheckIntegrity().ToString();
}

TEST(PinProtocolTest, StalePinOnAFreeFrameDoesNotCancelTheLoaderPin) {
  // A stale pinner can hold a transient pin on a frame that is on the free
  // list. The loader that takes the frame must add its pin to that one
  // (fetch_add): were it to store 1, the stale pinner's unpin would leave
  // the loaded page unpinned under a live handle.
  TwoFramePool fixture;
  BufferPool& pool = *fixture.pool;
  auto main_session = pool.CreateSession();
  auto stale_session = pool.CreateSession();
  ASSERT_TRUE(pool.FetchPage(*main_session, 1).ok());  // frame 0

  PointGate gate;
  gate.StopAt("pool.try_pin");
  StaleFetch stale;
  std::thread stale_thread = StartStaleFetch(pool, *stale_session, 1, stale);
  gate.WaitParked();  // looked up page 1 -> frame 0

  ASSERT_TRUE(pool.DropPage(*main_session, 1).ok());  // frame 0 is free
  gate.Resume("pool.pin_validate");
  gate.WaitParked();  // holds a pin on the free frame 0

  auto loaded = pool.FetchPage(*main_session, 2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().frame(), 0u) << "the free frame was not re-used";

  gate.Resume(nullptr);  // sees page 2's tag and drops its pin
  stale_thread.join();
  ASSERT_TRUE(stale.ok);
  EXPECT_EQ(stale.frame, 1u);
  EXPECT_TRUE(stale.right_bytes);

  // The live handle must still pin frame 0.
  EXPECT_EQ(pool.DropPage(*main_session, 2).code(),
            StatusCode::kFailedPrecondition)
      << "a page under a live handle was droppable";
  EXPECT_TRUE(HoldsPage(loaded.value(), 2));
  loaded.value().Release();
  EXPECT_TRUE(pool.CheckIntegrity().ok()) << pool.CheckIntegrity().ToString();
  EXPECT_TRUE(pool.DropPage(*main_session, 2).ok());
}

#endif  // BPW_SCHEDULE_POINTS

}  // namespace
}  // namespace bpw
