// Tests for the dense page table.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "buffer/page_table.h"

namespace bpw {
namespace {

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
  EXPECT_TRUE(table.Insert(42, 7));
  EXPECT_EQ(table.Lookup(42), 7u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(PageTableTest, DuplicateInsertRejected) {
  PageTable table(64);
  EXPECT_TRUE(table.Insert(1, 0));
  EXPECT_FALSE(table.Insert(1, 5));
  EXPECT_EQ(table.Lookup(1), 0u) << "original mapping must be untouched";
}

TEST(PageTableTest, EraseRequiresMatchingFrame) {
  PageTable table(64);
  table.Insert(1, 3);
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
  ASSERT_TRUE(table.Insert(5, 2));
  ASSERT_TRUE(table.Erase(5, 2));
  ASSERT_TRUE(table.Insert(5, 6));
  EXPECT_EQ(table.Lookup(5), 6u);
  EXPECT_FALSE(table.Erase(5, 2)) << "the old frame's erase must not win";
}

TEST(PageTableTest, FirstAndLastPagesAreAddressable) {
  PageTable table(3);
  EXPECT_TRUE(table.Insert(0, 10));
  EXPECT_TRUE(table.Insert(2, 12));
  EXPECT_EQ(table.Lookup(0), 10u);
  EXPECT_EQ(table.Lookup(1), kInvalidFrameId);
  EXPECT_EQ(table.Lookup(2), 12u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(PageTableTest, ManyMappings) {
  PageTable table(10000);
  for (PageId p = 0; p < 10000; ++p) {
    ASSERT_TRUE(table.Insert(p, static_cast<FrameId>(p % 1000)));
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
        ASSERT_TRUE(table.Insert(p, static_cast<FrameId>(p % 97)));
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
      if (table.Insert(7, static_cast<FrameId>(t))) {
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
  ASSERT_TRUE(table.Insert(3, 9));
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

}  // namespace
}  // namespace bpw
