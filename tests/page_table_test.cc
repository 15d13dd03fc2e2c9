// Tests for the dense page table.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "buffer/page_table.h"

namespace bpw {
namespace {

// Maps `page` to `frame` the way a miss does: claim the load, then publish
// the frame. Returns false (and changes nothing) if the page is mapped or
// loading.
bool Map(PageTable& table, PageId page, FrameId frame) {
  if (!table.TryClaimLoad(page)) return false;
  table.PublishLoad(page, frame);
  return true;
}

TEST(PageTableTest, LookupMissingReturnsInvalid) {
  PageTable table(64);
  EXPECT_EQ(table.Lookup(42), kInvalidFrameId);
  EXPECT_EQ(table.Lookup(0), kInvalidFrameId);
  EXPECT_EQ(table.Lookup(63), kInvalidFrameId);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.num_pages(), 64u);
}

TEST(PageTableTest, InsertThenLookup) {
  PageTable table(64);
  EXPECT_TRUE(Map(table, 42, 7));
  EXPECT_EQ(table.Lookup(42), 7u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(PageTableTest, DuplicateInsertRejected) {
  PageTable table(64);
  EXPECT_TRUE(Map(table, 1, 0));
  EXPECT_FALSE(Map(table, 1, 5));
  EXPECT_EQ(table.Lookup(1), 0u) << "original mapping must be untouched";
}

TEST(PageTableTest, EraseRequiresMatchingFrame) {
  PageTable table(64);
  Map(table, 1, 3);
  EXPECT_FALSE(table.Erase(1, 4)) << "wrong frame must not erase";
  EXPECT_EQ(table.Lookup(1), 3u);
  EXPECT_TRUE(table.Erase(1, 3));
  EXPECT_EQ(table.Lookup(1), kInvalidFrameId);
  EXPECT_FALSE(table.Erase(1, 3)) << "double erase";
}

TEST(PageTableTest, EraseThenReinsertAnotherFrame) {
  // The eviction/reload cycle: a page leaves one frame and comes back in
  // another, and the slot follows it.
  PageTable table(8);
  ASSERT_TRUE(Map(table, 5, 2));
  ASSERT_TRUE(table.Erase(5, 2));
  ASSERT_TRUE(Map(table, 5, 6));
  EXPECT_EQ(table.Lookup(5), 6u);
  EXPECT_FALSE(table.Erase(5, 2)) << "the old frame's erase must not win";
}

TEST(PageTableTest, FirstAndLastPagesAreAddressable) {
  PageTable table(3);
  EXPECT_TRUE(Map(table, 0, 10));
  EXPECT_TRUE(Map(table, 2, 12));
  EXPECT_EQ(table.Lookup(0), 10u);
  EXPECT_EQ(table.Lookup(1), kInvalidFrameId);
  EXPECT_EQ(table.Lookup(2), 12u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(PageTableTest, ManyMappings) {
  PageTable table(10000);
  for (PageId p = 0; p < 10000; ++p) {
    ASSERT_TRUE(Map(table, p, static_cast<FrameId>(p % 1000)));
  }
  EXPECT_EQ(table.size(), 10000u);
  for (PageId p = 0; p < 10000; ++p) {
    ASSERT_EQ(table.Lookup(p), static_cast<FrameId>(p % 1000));
  }
}

TEST(PageTableTest, ConcurrentDisjointInsertErase) {
  constexpr int kThreads = 8;
  constexpr PageId kPerThread = 5000;
  PageTable table(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, t] {
      const PageId base = static_cast<PageId>(t) * kPerThread;
      for (PageId p = base; p < base + kPerThread; ++p) {
        ASSERT_TRUE(Map(table, p, static_cast<FrameId>(p % 97)));
      }
      for (PageId p = base; p < base + kPerThread; ++p) {
        ASSERT_EQ(table.Lookup(p), static_cast<FrameId>(p % 97));
      }
      for (PageId p = base; p < base + kPerThread; p += 2) {
        ASSERT_TRUE(table.Erase(p, static_cast<FrameId>(p % 97)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.size(), kThreads * kPerThread / 2);
}

TEST(PageTableTest, ConcurrentSamePageSingleWinner) {
  PageTable table(16);
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::atomic<int> winning_frame{-1};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (Map(table, 7, static_cast<FrameId>(t))) {
        winners.fetch_add(1);
        winning_frame.store(t);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(table.Lookup(7), static_cast<FrameId>(winning_frame.load()));
}

TEST(PageTableTest, ConcurrentEraseOfOneMappingHasOneWinner) {
  // Evictor and dropper racing to unmap the same (page, frame): exactly one
  // CAS succeeds.
  PageTable table(16);
  ASSERT_TRUE(Map(table, 3, 9));
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      if (table.Erase(3, 9)) winners.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(table.Lookup(3), kInvalidFrameId);
}

TEST(PageTableTest, LoadSentinelIsVisibleButNotCounted) {
  PageTable table(16);
  ASSERT_TRUE(table.TryClaimLoad(4));
  EXPECT_EQ(table.Lookup(4), PageTable::kLoadingFrameId);
  EXPECT_TRUE(table.Loading(4));
  EXPECT_FALSE(table.Loading(5));
  EXPECT_EQ(table.size(), 0u) << "a load in flight is not a mapping";
  EXPECT_EQ(table.loading(), 1u);
  EXPECT_FALSE(table.TryClaimLoad(4)) << "a second claim must lose";
  EXPECT_FALSE(Map(table, 4, 2)) << "a loading page must not be mapped";
  EXPECT_FALSE(table.Erase(4, PageTable::kLoadingFrameId - 1));

  table.PublishLoad(4, 9);
  EXPECT_EQ(table.Lookup(4), 9u);
  EXPECT_FALSE(table.Loading(4));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.loading(), 0u);
  EXPECT_FALSE(table.TryClaimLoad(4)) << "a mapped page cannot be claimed";
}

TEST(PageTableTest, AbortedLoadLeavesThePageUnmapped) {
  PageTable table(16);
  ASSERT_TRUE(table.TryClaimLoad(7));
  table.AbortLoad(7);
  EXPECT_EQ(table.Lookup(7), kInvalidFrameId);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.loading(), 0u);
  EXPECT_TRUE(table.TryClaimLoad(7)) << "the next miss must be able to load";
}

TEST(PageTableTest, ConcurrentLoadClaimsHaveOneWinner) {
  // Every racing miss on one cold page CASes the same slot: exactly one
  // owns the load, and every loser sees the sentinel or the published
  // frame, never an unmapped slot.
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  PageTable table(4);
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> winners{0};
    std::atomic<int> unmapped_after_loss{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        if (table.TryClaimLoad(2)) {
          winners.fetch_add(1);
          table.PublishLoad(2, static_cast<FrameId>(t));
        } else if (table.Lookup(2) == kInvalidFrameId) {
          unmapped_after_loss.fetch_add(1);
        }
      });
    }
    go.store(true);
    for (auto& th : threads) th.join();
    ASSERT_EQ(winners.load(), 1) << "round " << round;
    ASSERT_EQ(unmapped_after_loss.load(), 0) << "round " << round;
    ASSERT_EQ(table.size(), 1u);
    const FrameId frame = table.Lookup(2);
    ASSERT_TRUE(table.Erase(2, frame));
  }
}

}  // namespace
}  // namespace bpw
