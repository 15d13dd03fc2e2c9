// Quickstart: the smallest complete use of the library.
//
// Builds a buffer pool over a simulated disk, wraps the 2Q replacement
// algorithm in BP-Wrapper, fetches some pages from a few threads, and
// prints hit ratios and lock statistics.
//
//   $ ./quickstart
#include <cstdio>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/coordinator_factory.h"
#include "storage/storage_engine.h"

int main() {
  using namespace bpw;

  // 1. A simulated disk: 4096 pages of 8 KB, no latency model.
  StorageEngine storage(/*num_pages=*/4096, /*page_size=*/8192);

  // 2. Any replacement policy — here the full 2Q algorithm — wrapped in
  //    BP-Wrapper: the paper's pgBatPre system. The policy code knows
  //    nothing about concurrency; the wrapper batches each thread's
  //    accesses in a private FIFO queue and commits them with one lock
  //    acquisition per batch, warming the cache before taking the lock.
  SystemConfig system = PaperSystemConfig("pgBatPre").value();
  system.queue_size = 64;       // the paper's S
  system.batch_threshold = 32;  // the paper's T
  auto coordinator = CreateCoordinator(system, /*num_frames=*/1024);
  if (!coordinator.ok()) {
    std::fprintf(stderr, "%s\n", coordinator.status().ToString().c_str());
    return 1;
  }

  // 3. The buffer pool: 1024 frames over the 4096-page disk.
  BufferPoolConfig config;
  config.num_frames = 1024;
  config.page_size = 8192;
  BufferPool pool(config, &storage, std::move(coordinator).value());

  // 4. Worker threads fetch pages. Each thread registers a session.
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&pool, t] {
      auto session = pool.CreateSession();
      for (int i = 0; i < 50000; ++i) {
        // A skewed stream: half the accesses go to 64 hot pages.
        PageId page = (i % 2 == 0) ? (i % 64) : ((i * 37 + t) % 4096);
        auto handle = pool.FetchPage(*session, page);
        if (!handle.ok()) {
          std::fprintf(stderr, "fetch failed: %s\n",
                       handle.status().ToString().c_str());
          return;
        }
        // handle.value().data() is the 8 KB page; MarkDirty() after writes.
      }
      pool.FlushSession(*session);
      std::printf("thread %d: %llu hits, %llu misses (%.1f%% hit ratio)\n", t,
                  static_cast<unsigned long long>(session->stats().hits),
                  static_cast<unsigned long long>(session->stats().misses),
                  session->stats().hit_ratio() * 100);
    });
  }
  for (auto& w : workers) w.join();

  // 5. The paper's metric: how often did anyone block on the policy lock?
  const LockStats lock = pool.coordinator().lock_stats();
  std::printf("\npolicy lock: %llu acquisitions, %llu contentions, "
              "%llu failed TryLocks\n",
              static_cast<unsigned long long>(lock.acquisitions),
              static_cast<unsigned long long>(lock.contentions),
              static_cast<unsigned long long>(lock.trylock_failures));
  std::printf("buffer pool: %llu evictions, %llu write-backs\n",
              static_cast<unsigned long long>(pool.evictions()),
              static_cast<unsigned long long>(pool.writebacks()));
  return 0;
}
