// Edge cases of the per-thread AccessQueue and the BP-Wrapper commit paths
// built on it: wraparound reuse after commits, partial-queue commits via
// FlushSlot, the deterministic queue-full blocking-Lock fallback (Fig. 4
// line 13), and FlushSlot on an empty queue staying off the lock entirely.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/access_queue.h"
#include "core/bp_wrapper.h"
#include "policy/policy_factory.h"

namespace bpw {
namespace {

TEST(AccessQueueTest, RecordFillClearReuse) {
  AccessQueue queue(4);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.capacity(), 4u);

  // Fill, clear, and refill several times: the buffer is reused in place
  // and arrival order is preserved across the wraparound.
  for (uint64_t round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < 4; ++i) {
      EXPECT_FALSE(queue.full());
      queue.Record(/*page=*/round * 100 + i, /*frame=*/i);
    }
    EXPECT_TRUE(queue.full());
    EXPECT_EQ(queue.size(), 4u);
    for (size_t i = 0; i < queue.size(); ++i) {
      EXPECT_EQ(queue[i].page, round * 100 + i);
      EXPECT_EQ(queue[i].frame, i);
    }
    queue.Clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
  }
}

TEST(AccessQueueTest, ZeroCapacityIsClampedToOne) {
  AccessQueue queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  queue.Record(7, 0);
  EXPECT_TRUE(queue.full());
}

std::unique_ptr<BpWrapperCoordinator> MakeCoordinator(
    BpWrapperCoordinator::Options options, size_t frames) {
  auto policy = CreatePolicy("lru", frames);
  EXPECT_TRUE(policy.ok());
  return std::make_unique<BpWrapperCoordinator>(std::move(policy).value(),
                                                options);
}

// Makes pages 0..n-1 resident in frames 0..n-1 through the coordinator.
void Populate(BpWrapperCoordinator& coord, Coordinator::ThreadSlot* slot,
              size_t n) {
  for (size_t i = 0; i < n; ++i) {
    coord.CompleteMiss(slot, /*page=*/i, /*frame=*/i);
  }
}

TEST(AccessQueueTest, FlushSlotCommitsPartialQueue) {
  BpWrapperCoordinator::Options options;
  options.queue_size = 8;
  options.batch_threshold = 8;  // no auto-commit below 8 entries
  auto coord = MakeCoordinator(options, 8);
  auto slot = coord->RegisterThread();
  Populate(*coord, slot.get(), 8);

  // Three hits: below threshold, so they stay queued.
  for (PageId p = 0; p < 3; ++p) coord->OnHit(slot.get(), p, p);
  EXPECT_EQ(coord->committed_entries(), 0u);
  EXPECT_EQ(coord->commit_batches(), 0u);

  coord->FlushSlot(slot.get());
  EXPECT_EQ(coord->committed_entries(), 3u);
  EXPECT_EQ(coord->commit_batches(), 1u);

  // The queue was cleared: a second flush finds nothing.
  coord->FlushSlot(slot.get());
  EXPECT_EQ(coord->commit_batches(), 1u);
  slot.reset();
}

TEST(AccessQueueTest, FlushSlotOnEmptyQueueNeverTouchesTheLock) {
  BpWrapperCoordinator::Options options;
  options.instrumentation = LockInstrumentation::kCounts;
  auto coord = MakeCoordinator(options, 4);
  auto slot = coord->RegisterThread();
  const uint64_t acquisitions_before = coord->lock_stats().acquisitions;
  coord->FlushSlot(slot.get());
  EXPECT_EQ(coord->lock_stats().acquisitions, acquisitions_before)
      << "an empty flush must not acquire the policy lock";
  slot.reset();
}

TEST(AccessQueueTest, FullQueueFallsBackToBlockingLock) {
  // Deterministic construction of the Fig. 4 line-13 path: a helper thread
  // parks inside ChooseVictim *holding the policy lock* (its evictable
  // callback spins until it sees the fallback counter move). Meanwhile this
  // thread records hits: the threshold TryLock fails (lock held), recording
  // continues, and on the queue-full hit the coordinator must block —
  // which is exactly the event the helper is waiting for.
  constexpr size_t kQueue = 4;
  BpWrapperCoordinator::Options options;
  options.queue_size = kQueue;
  options.batch_threshold = 2;
  auto coord = MakeCoordinator(options, 8);
  auto main_slot = coord->RegisterThread();
  Populate(*coord, main_slot.get(), 8);

  std::atomic<bool> holder_inside{false};
  std::thread holder([&] {
    auto slot = coord->RegisterThread();
    auto victim = coord->ChooseVictim(
        slot.get(),
        [&](FrameId) {
          holder_inside.store(true);
          // Hold the lock until the main thread is forced into fallback.
          while (coord->lock_fallbacks() == 0) std::this_thread::yield();
          return true;
        },
        /*incoming=*/100);
    EXPECT_TRUE(victim.ok()) << victim.status().ToString();
    slot.reset();
  });

  while (!holder_inside.load()) std::this_thread::yield();

  // Queue fills: thresholds at 2,3,4 try TryLock and fail; entry 4 finds
  // the queue full and must take the blocking path.
  for (size_t i = 0; i < kQueue; ++i) {
    coord->OnHit(main_slot.get(), /*page=*/i % 7, /*frame=*/i % 7);
  }
  holder.join();

  EXPECT_EQ(coord->lock_fallbacks(), 1u);
  EXPECT_GT(coord->lock_stats().trylock_failures, 0u);
  // The blocking commit drained the full queue (minus any entry staled by
  // the helper's eviction).
  EXPECT_EQ(coord->commit_batches(), 1u);
  EXPECT_GT(coord->committed_entries(), 0u);
  main_slot.reset();
}

}  // namespace
}  // namespace bpw
