// Micro-benchmarks for the BP-Wrapper hot path: the cost of recording an
// access in the private FIFO queue (the paper's claim is that this is
// nearly free compared with a lock acquisition), and the end-to-end
// amortized OnHit cost through each coordinator.
#include <benchmark/benchmark.h>

#include "core/access_queue.h"
#include "core/clock_coordinator.h"
#include "core/bp_wrapper.h"
#include "core/serialized_coordinator.h"
#include "policy/clock.h"
#include "policy/two_q.h"

namespace bpw {
namespace {

constexpr size_t kFrames = 4096;

void BM_QueueRecord(benchmark::State& state) {
  AccessQueue queue(64);
  PageId page = 0;
  for (auto _ : state) {
    if (queue.full()) queue.Clear();
    queue.Record(page++, 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueRecord);

template <typename MakeCoordinator>
void HitThroughCoordinator(benchmark::State& state, MakeCoordinator make) {
  auto coordinator = make();
  auto slot = coordinator->RegisterThread();
  for (PageId p = 0; p < kFrames; ++p) {
    coordinator->CompleteMiss(slot.get(), p, static_cast<FrameId>(p));
  }
  PageId page = 0;
  for (auto _ : state) {
    coordinator->OnHit(slot.get(), page, static_cast<FrameId>(page));
    page = (page + 1) % kFrames;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_HitSerialized2Q(benchmark::State& state) {
  HitThroughCoordinator(state, [] {
    return std::make_unique<SerializedCoordinator>(
        std::make_unique<TwoQPolicy>(kFrames));
  });
}
BENCHMARK(BM_HitSerialized2Q);

std::unique_ptr<BpWrapperCoordinator> MakeBpWrapper2Q(bool prefetch) {
  BpWrapperCoordinator::Options options;
  options.queue_size = 64;
  options.batch_threshold = 32;
  options.prefetch = prefetch;
  return std::make_unique<BpWrapperCoordinator>(
      std::make_unique<TwoQPolicy>(kFrames), options);
}

void BM_HitBpWrapper2Q(benchmark::State& state) {
  HitThroughCoordinator(state, [] { return MakeBpWrapper2Q(false); });
}
BENCHMARK(BM_HitBpWrapper2Q);

void BM_HitBpWrapper2QPrefetch(benchmark::State& state) {
  HitThroughCoordinator(state, [] { return MakeBpWrapper2Q(true); });
}
BENCHMARK(BM_HitBpWrapper2QPrefetch);

void BM_HitClockLockFree(benchmark::State& state) {
  HitThroughCoordinator(state, [] {
    return std::make_unique<ClockCoordinator>(
        std::make_unique<ClockPolicy>(kFrames));
  });
}
BENCHMARK(BM_HitClockLockFree);

}  // namespace
}  // namespace bpw
