// Micro-benchmarks for the buffer-pool hot paths: the full FetchPage hit
// path under each coordinator (table lookup + pin + bookkeeping), the miss
// path, and the page-table primitives. These bound what any replacement
// strategy can cost end-to-end on this host.
#include <benchmark/benchmark.h>

#include "buffer/buffer_pool.h"
#include "buffer/page_table.h"
#include "core/coordinator_factory.h"
#include "util/random.h"

namespace bpw {
namespace {

constexpr size_t kPageSize = 512;
constexpr size_t kFrames = 1024;

void FetchHitLoop(benchmark::State& state, const char* system_name) {
  StorageEngine storage(kFrames, kPageSize);
  auto system = PaperSystemConfig(system_name);
  auto coordinator = CreateCoordinator(system.value(), kFrames);
  BufferPoolConfig config;
  config.num_frames = kFrames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());
  auto session = pool.CreateSession();
  if (!pool.Prewarm(*session, 0, kFrames).ok()) {
    state.SkipWithError("prewarm failed");
    return;
  }
  Random rng(7);
  for (auto _ : state) {
    auto handle = pool.FetchPage(*session, rng.Uniform(kFrames));
    benchmark::DoNotOptimize(handle.value().data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FetchHit_pgClock(benchmark::State& state) {
  FetchHitLoop(state, "pgClock");
}
BENCHMARK(BM_FetchHit_pgClock);

void BM_FetchHit_pg2Q(benchmark::State& state) {
  FetchHitLoop(state, "pg2Q");
}
BENCHMARK(BM_FetchHit_pg2Q);

void BM_FetchHit_pgBatPre(benchmark::State& state) {
  FetchHitLoop(state, "pgBatPre");
}
BENCHMARK(BM_FetchHit_pgBatPre);

void BM_FetchMissEvict(benchmark::State& state) {
  // Steady-state miss path: every fetch evicts (sequential sweep through a
  // space twice the pool size, zero storage latency).
  StorageEngine storage(kFrames * 2, kPageSize);
  auto system = PaperSystemConfig("pgBatPre");
  auto coordinator = CreateCoordinator(system.value(), kFrames);
  BufferPoolConfig config;
  config.num_frames = kFrames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());
  auto session = pool.CreateSession();
  PageId next = 0;
  for (auto _ : state) {
    auto handle = pool.FetchPage(*session, next);
    benchmark::DoNotOptimize(handle.value().data());
    next = (next + 1) % (kFrames * 2);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FetchMissEvict);

// The page-table cases map 10000 pages over 1024 frames; lookups of
// unmapped pages draw from a second 10000-page range, so the table spans
// 20000 page ids.
constexpr PageId kTablePages = 10000;

void BM_PageTableLookupHit(benchmark::State& state) {
  PageTable table(2 * kTablePages);
  for (PageId p = 0; p < kTablePages; ++p) {
    table.Insert(p, static_cast<FrameId>(p % 1024));
  }
  Random rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Lookup(rng.Uniform(kTablePages)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableLookupHit);

void BM_PageTableLookupMiss(benchmark::State& state) {
  PageTable table(2 * kTablePages);
  for (PageId p = 0; p < kTablePages; ++p) {
    table.Insert(p, static_cast<FrameId>(p % 1024));
  }
  Random rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Lookup(kTablePages + rng.Uniform(kTablePages)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableLookupMiss);

void BM_PageTableInsertErase(benchmark::State& state) {
  PageTable table(kTablePages);
  PageId p = 0;
  for (auto _ : state) {
    table.Insert(p, 0);
    table.Erase(p, 0);
    p = (p + 1) % kTablePages;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableInsertErase);

}  // namespace
}  // namespace bpw
