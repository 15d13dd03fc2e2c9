// Behavioural tests for FIFO, CLOCK, and GCLOCK.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "policy/clock.h"
#include "policy/fifo.h"
#include "policy/gclock.h"

namespace bpw {
namespace {

ReplacementPolicy::EvictableFn All() {
  return [](FrameId) { return true; };
}

TEST(FifoTest, HitsDoNotAffectEvictionOrder) {
  FifoPolicy fifo(3);
  fifo.AssertExclusiveAccess();
  fifo.OnMiss(1, 0);
  fifo.OnMiss(2, 1);
  fifo.OnMiss(3, 2);
  for (int i = 0; i < 100; ++i) fifo.OnHit(1, 0);  // FIFO ignores this
  auto victim = fifo.ChooseVictim(All(), 9);
  ASSERT_TRUE(victim.ok());
  EXPECT_EQ(victim->page, 1u);
}

TEST(FifoTest, EvictsOldestFirst) {
  FifoPolicy fifo(4);
  fifo.AssertExclusiveAccess();
  for (PageId p = 10; p < 14; ++p) {
    fifo.OnMiss(p, static_cast<FrameId>(p - 10));
  }
  for (PageId expected = 10; expected < 14; ++expected) {
    auto victim = fifo.ChooseVictim(All(), 99);
    ASSERT_TRUE(victim.ok());
    EXPECT_EQ(victim->page, expected);
  }
}

TEST(ClockTest, SecondChanceProtectsReferencedPage) {
  ClockPolicy clock(3);
  clock.AssertExclusiveAccess();
  clock.OnMiss(1, 0);
  clock.OnMiss(2, 1);
  clock.OnMiss(3, 2);
  // All pages inserted with ref=1. First eviction sweeps: clears 1,2,3's
  // bits, returns the first (frame 0, page 1).
  auto v1 = clock.ChooseVictim(All(), 4);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->page, 1u);
  clock.OnMiss(4, 0);
  // Hit page 2: its ref bit is set again; page 3's stays clear.
  clock.OnHitLockFree(2, 1);
  auto v2 = clock.ChooseVictim(All(), 5);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->page, 3u) << "referenced page 2 must survive";
}

TEST(ClockTest, HandAdvancesAcrossEvictions) {
  ClockPolicy clock(4);
  clock.AssertExclusiveAccess();
  for (PageId p = 0; p < 4; ++p) clock.OnMiss(p, static_cast<FrameId>(p));
  // No hits: first sweep clears all bits and evicts frame 0; subsequent
  // evictions continue around the clock face.
  std::vector<PageId> order;
  for (int i = 0; i < 4; ++i) {
    auto v = clock.ChooseVictim(All(), 100 + i);
    ASSERT_TRUE(v.ok());
    order.push_back(v->page);
  }
  EXPECT_EQ(order, (std::vector<PageId>{0, 1, 2, 3}));
}

TEST(ClockTest, LockFreeHitValidatesTag) {
  ClockPolicy clock(2);
  clock.AssertExclusiveAccess();
  clock.OnMiss(7, 0);
  clock.OnHitLockFree(8, 0);   // wrong page: ignored
  clock.OnHitLockFree(7, 1);   // wrong frame: ignored
  clock.OnHitLockFree(7, 99);  // out of range: ignored
  EXPECT_TRUE(clock.CheckInvariants().ok());
  EXPECT_EQ(clock.resident_count(), 1u);
}

TEST(ClockTest, ConcurrentLockFreeHitsDuringSweep) {
  // Hits from many threads while a sweeper evicts: no crashes, counters
  // stay exact under the policy-lock discipline (sweep serialized here).
  ClockPolicy clock(64);
  clock.AssertExclusiveAccess();
  for (PageId p = 0; p < 64; ++p) clock.OnMiss(p, static_cast<FrameId>(p));
  std::atomic<bool> stop{false};
  std::vector<std::thread> hitters;
  for (int t = 0; t < 4; ++t) {
    hitters.emplace_back([&clock, &stop, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const PageId p = (t * 16 + i) % 64;
        clock.OnHitLockFree(p, static_cast<FrameId>(p));
        ++i;
      }
    });
  }
  // Serialized evict+insert cycles while hits fly. A failure is recorded,
  // not asserted, until the hitters are joined: returning early would
  // destroy joinable threads.
  Status failure;
  for (int i = 0; i < 2000; ++i) {
    auto v = clock.ChooseVictim(All(), 1000 + i);
    if (!v.ok()) {
      failure = v.status();
      break;
    }
    clock.OnMiss(1000 + i, v->frame);
  }
  stop.store(true);
  for (auto& th : hitters) th.join();
  ASSERT_TRUE(failure.ok()) << failure.ToString();
  EXPECT_EQ(clock.resident_count(), 64u);
}

TEST(ClockTest, LastSweepIgnoresRefBitsReSetByConcurrentHits) {
  // The unpinned probe stands in for a concurrent lock-free hitter that
  // re-sets each frame's bit just before the hand reads it, so no sweep
  // ever sees ref == 0. Every claim succeeds; the hand must still return a
  // frame instead of ResourceExhausted.
  ClockPolicy clock(4);
  clock.AssertExclusiveAccess();
  for (PageId p = 0; p < 4; ++p) clock.OnMiss(p, static_cast<FrameId>(p));
  int claims = 0;
  auto v = clock.ChooseVictim(
      ReplacementPolicy::EvictableFn(
          [&claims](FrameId) { return ++claims > 0; },
          [&clock](FrameId frame) {
            clock.OnHitLockFree(static_cast<PageId>(frame), frame);
            return true;
          }),
      100);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->frame, 0u) << "the third sweep starts where the hand began";
  EXPECT_EQ(claims, 1) << "a frame was claimed and then passed over";
  EXPECT_EQ(clock.resident_count(), 3u);
}

TEST(ClockTest, PinnedFrameKeepsItsBitAcrossASweep) {
  // Frame 0 reads pinned through a whole victim search: the hand must pass
  // it without clearing its bit (PostgreSQL's sweep ages only unpinned
  // buffers) and claim only the frame it returns.
  ClockPolicy clock(2);
  clock.AssertExclusiveAccess();
  clock.OnMiss(0, 0);
  clock.OnMiss(1, 1);
  std::vector<FrameId> claimed;
  auto v = clock.ChooseVictim(
      ReplacementPolicy::EvictableFn(
          [&claimed](FrameId frame) {
            claimed.push_back(frame);
            return true;
          },
          [](FrameId frame) { return frame != 0; }),
      100);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->frame, 1u);
  EXPECT_EQ(claimed, std::vector<FrameId>{1});

  // Frame 0 still has its bit: the next sweep clears it, passes the
  // reloaded frame 1 (clearing its fresh bit too), and takes frame 0 on
  // the way round.
  clock.OnMiss(2, 1);
  std::vector<FrameId> probed;
  v = clock.ChooseVictim(
      ReplacementPolicy::EvictableFn(
          [](FrameId) { return true; },
          [&probed](FrameId frame) {
            probed.push_back(frame);
            return true;
          }),
      101);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->page, 0u);
  EXPECT_EQ(probed, (std::vector<FrameId>{0, 1, 0}))
      << "frame 0 lost its bit while pinned";
  EXPECT_TRUE(clock.CheckInvariants().ok());
}

TEST(GClockTest, CounterSaturatesAtCap) {
  GClockPolicy gclock(2, /*max_count=*/3);
  gclock.AssertExclusiveAccess();
  gclock.OnMiss(1, 0);
  for (int i = 0; i < 100; ++i) gclock.OnHitLockFree(1, 0);
  EXPECT_TRUE(gclock.CheckInvariants().ok());  // cap invariant checked there
}

TEST(GClockTest, FrequentlyHitPageOutlivesColdOnes) {
  GClockPolicy gclock(4, 5);
  gclock.AssertExclusiveAccess();
  for (PageId p = 0; p < 4; ++p) gclock.OnMiss(p, static_cast<FrameId>(p));
  // Page 2 is hot.
  for (int i = 0; i < 5; ++i) gclock.OnHitLockFree(2, 2);
  // Evict three times: page 2 must survive all three.
  for (int i = 0; i < 3; ++i) {
    auto v = gclock.ChooseVictim(All(), 100 + i);
    ASSERT_TRUE(v.ok());
    EXPECT_NE(v->page, 2u);
  }
  EXPECT_TRUE(gclock.IsResident(2));
}

TEST(GClockTest, EvictionDecrementsUntilZero) {
  GClockPolicy gclock(1, 5);
  gclock.AssertExclusiveAccess();
  gclock.OnMiss(42, 0);
  gclock.OnHitLockFree(42, 0);  // count 2
  auto v = gclock.ChooseVictim(All(), 9);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->page, 42u);  // only candidate; sweep decrements then evicts
}

TEST(GClockTest, LastSweepIgnoresCountsRaisedByConcurrentHits) {
  // As for CLOCK: a hit before every probe keeps each count at the cap, so
  // no count ever reaches zero, yet every claim succeeds.
  GClockPolicy gclock(4, /*max_count=*/3);
  gclock.AssertExclusiveAccess();
  for (PageId p = 0; p < 4; ++p) gclock.OnMiss(p, static_cast<FrameId>(p));
  int claims = 0;
  auto v = gclock.ChooseVictim(
      ReplacementPolicy::EvictableFn(
          [&claims](FrameId) { return ++claims > 0; },
          [&gclock](FrameId frame) {
            gclock.OnHitLockFree(static_cast<PageId>(frame), frame);
            return true;
          }),
      100);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->frame, 0u);
  EXPECT_EQ(claims, 1) << "a frame was claimed and then passed over";
  EXPECT_EQ(gclock.resident_count(), 3u);
}

TEST(GClockTest, PinnedFrameKeepsItsCountAcrossASweep) {
  // Frame 0 (count 3) reads pinned through a whole victim search that ages
  // frame 1 to zero and takes it: frame 0 must keep its count, and only the
  // returned frame is claimed.
  GClockPolicy gclock(2, /*max_count=*/3);
  gclock.AssertExclusiveAccess();
  gclock.OnMiss(0, 0);
  gclock.OnMiss(1, 1);
  gclock.OnHitLockFree(0, 0);
  gclock.OnHitLockFree(0, 0);  // count 3
  std::vector<FrameId> claimed;
  auto v = gclock.ChooseVictim(
      ReplacementPolicy::EvictableFn(
          [&claimed](FrameId frame) {
            claimed.push_back(frame);
            return true;
          },
          [](FrameId frame) { return frame != 0; }),
      100);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->frame, 1u);
  EXPECT_EQ(claimed, std::vector<FrameId>{1});

  // Page 2 loads into frame 1 with count 1. Frame 0 still counts 3, so the
  // next search, with nothing pinned, takes page 2 first.
  gclock.OnMiss(2, 1);
  v = gclock.ChooseVictim(All(), 101);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->page, 2u) << "frame 0 lost its count while pinned";
  EXPECT_TRUE(gclock.IsResident(0));
  EXPECT_TRUE(gclock.CheckInvariants().ok());
}

}  // namespace
}  // namespace bpw
