// Property tests that every replacement policy must pass, parameterized
// over all nine algorithms. These pin down the ReplacementPolicy contract
// the coordinators (and therefore BP-Wrapper) rely on:
//   - capacity is never exceeded, resident accounting is exact
//   - ChooseVictim returns a page that was resident and detaches it
//   - the evictability predicate is always honoured (pinned pages survive)
//   - stale OnHit calls are no-ops (required for batched commits)
//   - behaviour is deterministic for a fixed operation sequence
//   - CheckInvariants holds after every kind of mutation
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "policy/policy_factory.h"
#include "util/random.h"

namespace {

// operator new calls made on this thread while counting is on.
thread_local bool counting_allocations = false;
thread_local uint64_t counted_allocations = 0;

}  // namespace

// Counting replacements of the global allocation functions (this test
// binary only). Aligned new/delete keep the library's own pair.
void* operator new(std::size_t size) {
  if (counting_allocations) ++counted_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bpw {
namespace {

constexpr size_t kFrames = 32;

class PolicyTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<ReplacementPolicy> MakePolicy(size_t frames = kFrames) {
    auto policy = CreatePolicy(GetParam(), frames);
    EXPECT_TRUE(policy.ok()) << policy.status().ToString();
    return std::move(policy).value();
  }

  static ReplacementPolicy::EvictableFn AllEvictable() {
    return [](FrameId) { return true; };
  }
};

// A shadow model of buffer residency: page -> frame, frame -> page.
struct ShadowPool {
  std::map<PageId, FrameId> page_to_frame;
  std::map<FrameId, PageId> frame_to_page;
  std::vector<FrameId> free_frames;

  explicit ShadowPool(size_t frames) {
    for (size_t i = frames; i-- > 0;) {
      free_frames.push_back(static_cast<FrameId>(i));
    }
  }

  bool resident(PageId p) const { return page_to_frame.count(p) > 0; }
  FrameId frame_of(PageId p) const { return page_to_frame.at(p); }
  bool full() const { return free_frames.empty(); }

  FrameId Insert(PageId p) {
    FrameId f = free_frames.back();
    free_frames.pop_back();
    page_to_frame[p] = f;
    frame_to_page[f] = p;
    return f;
  }

  void Evict(PageId p) {
    FrameId f = page_to_frame.at(p);
    page_to_frame.erase(p);
    frame_to_page.erase(f);
    free_frames.push_back(f);
  }
};

// Drives one access against policy + shadow, evicting when needed.
void Access(ReplacementPolicy& policy, ShadowPool& shadow, PageId page,
            const ReplacementPolicy::EvictableFn& evictable) {
  if (shadow.resident(page)) {
    policy.OnHit(page, shadow.frame_of(page));
    return;
  }
  if (shadow.full()) {
    auto victim = policy.ChooseVictim(evictable, page);
    ASSERT_TRUE(victim.ok()) << victim.status().ToString();
    ASSERT_TRUE(shadow.resident(victim->page))
        << "policy evicted a non-resident page";
    ASSERT_EQ(shadow.frame_of(victim->page), victim->frame)
        << "policy returned wrong frame for victim";
    shadow.Evict(victim->page);
  }
  FrameId frame = shadow.Insert(page);
  policy.OnMiss(page, frame);
}

TEST_P(PolicyTest, StartsEmpty) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  EXPECT_EQ(policy->resident_count(), 0u);
  EXPECT_EQ(policy->num_frames(), kFrames);
  EXPECT_TRUE(policy->CheckInvariants().ok());
  EXPECT_FALSE(policy->IsResident(0));
}

TEST_P(PolicyTest, NameMatchesFactoryKey) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  EXPECT_EQ(policy->name(), GetParam());
}

TEST_P(PolicyTest, VictimOnEmptyIsResourceExhausted) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  auto victim = policy->ChooseVictim(AllEvictable(), 123);
  ASSERT_FALSE(victim.ok());
  EXPECT_EQ(victim.status().code(), StatusCode::kResourceExhausted);
}

TEST_P(PolicyTest, FailedVictimSearchAllocatesNothing) {
  // A failed search runs under the policy lock on every miss that finds
  // all frames pinned; it must not allocate (its status included).
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  for (PageId page = 0; page < kFrames; ++page) {
    policy->OnMiss(page, static_cast<FrameId>(page));
  }
  const ReplacementPolicy::EvictableFn none = [](FrameId) { return false; };
  for (int search = 0; search < 2; ++search) {
    counted_allocations = 0;
    counting_allocations = true;
    const bool found = policy->ChooseVictim(none, 1000 + search).ok();
    counting_allocations = false;
    EXPECT_FALSE(found);
    EXPECT_EQ(counted_allocations, 0u) << "search " << search;
  }
  EXPECT_TRUE(policy->CheckInvariants().ok());
}

TEST_P(PolicyTest, FillToCapacity) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  for (PageId p = 0; p < kFrames; ++p) {
    policy->OnMiss(p, static_cast<FrameId>(p));
    EXPECT_EQ(policy->resident_count(), p + 1);
    ASSERT_TRUE(policy->CheckInvariants().ok())
        << policy->CheckInvariants().ToString();
  }
  for (PageId p = 0; p < kFrames; ++p) {
    EXPECT_TRUE(policy->IsResident(p));
  }
}

TEST_P(PolicyTest, EvictInsertCycleKeepsCapacityExact) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  ShadowPool shadow(kFrames);
  for (PageId p = 0; p < kFrames; ++p) Access(*policy, shadow, p, AllEvictable());
  for (PageId p = kFrames; p < kFrames * 20; ++p) {
    Access(*policy, shadow, p, AllEvictable());
    ASSERT_EQ(policy->resident_count(), kFrames);
    if (p % 7 == 0) {
      ASSERT_TRUE(policy->CheckInvariants().ok())
          << policy->CheckInvariants().ToString();
    }
  }
}

TEST_P(PolicyTest, VictimNoLongerResident) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  ShadowPool shadow(kFrames);
  for (PageId p = 0; p < kFrames; ++p) Access(*policy, shadow, p, AllEvictable());
  auto victim = policy->ChooseVictim(AllEvictable(), 999);
  ASSERT_TRUE(victim.ok());
  EXPECT_FALSE(policy->IsResident(victim->page));
  EXPECT_EQ(policy->resident_count(), kFrames - 1);
}

TEST_P(PolicyTest, StaleHitWrongPageIsNoop) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  for (PageId p = 0; p < kFrames; ++p) {
    policy->OnMiss(p, static_cast<FrameId>(p));
  }
  // Frame 3 holds page 3; a batched commit might deliver a stale hit for a
  // page long gone.
  policy->OnHit(/*page=*/7777, /*frame=*/3);
  EXPECT_EQ(policy->resident_count(), kFrames);
  EXPECT_TRUE(policy->CheckInvariants().ok());
  EXPECT_FALSE(policy->IsResident(7777));
}

TEST_P(PolicyTest, StaleHitOutOfRangeFrameIsNoop) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  policy->OnMiss(1, 0);
  policy->OnHit(1, static_cast<FrameId>(kFrames + 5));
  policy->OnHit(1, kInvalidFrameId);
  EXPECT_EQ(policy->resident_count(), 1u);
  EXPECT_TRUE(policy->CheckInvariants().ok());
}

TEST_P(PolicyTest, HitAfterEvictionIsNoop) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  ShadowPool shadow(kFrames);
  for (PageId p = 0; p < kFrames; ++p) Access(*policy, shadow, p, AllEvictable());
  auto victim = policy->ChooseVictim(AllEvictable(), 1000);
  ASSERT_TRUE(victim.ok());
  // Deliver the late hit for the evicted page on its old frame.
  policy->OnHit(victim->page, victim->frame);
  EXPECT_FALSE(policy->IsResident(victim->page));
  EXPECT_TRUE(policy->CheckInvariants().ok());
}

TEST_P(PolicyTest, EvictableFilterIsHonoured) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  for (PageId p = 0; p < kFrames; ++p) {
    policy->OnMiss(p, static_cast<FrameId>(p));
  }
  // Pin frames 0..kFrames/2.
  const FrameId pin_limit = kFrames / 2;
  auto evictable = [pin_limit](FrameId f) { return f >= pin_limit; };
  std::set<FrameId> evicted;
  for (size_t i = 0; i < kFrames - pin_limit; ++i) {
    auto victim = policy->ChooseVictim(evictable, 5000 + i);
    ASSERT_TRUE(victim.ok()) << victim.status().ToString();
    EXPECT_GE(victim->frame, pin_limit) << "evicted a pinned frame";
    EXPECT_TRUE(evicted.insert(victim->frame).second)
        << "same frame evicted twice";
    ASSERT_TRUE(policy->CheckInvariants().ok());
  }
  // Now everything remaining is pinned.
  auto none = policy->ChooseVictim(evictable, 9999);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(policy->resident_count(), pin_limit);
}

TEST_P(PolicyTest, EraseRemovesResident) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  for (PageId p = 0; p < 10; ++p) {
    policy->OnMiss(p, static_cast<FrameId>(p));
  }
  policy->OnErase(4, 4);
  EXPECT_FALSE(policy->IsResident(4));
  EXPECT_EQ(policy->resident_count(), 9u);
  EXPECT_TRUE(policy->CheckInvariants().ok());
}

TEST_P(PolicyTest, EraseUnknownAndDoubleEraseAreNoops) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  policy->OnErase(55, 3);  // never inserted
  EXPECT_TRUE(policy->CheckInvariants().ok());
  policy->OnMiss(1, 0);
  policy->OnErase(1, 0);
  policy->OnErase(1, 0);  // double erase
  EXPECT_EQ(policy->resident_count(), 0u);
  EXPECT_TRUE(policy->CheckInvariants().ok());
}

TEST_P(PolicyTest, EraseWrongFrameIsNoop) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  policy->OnMiss(1, 0);
  policy->OnMiss(2, 1);
  policy->OnErase(1, /*frame=*/1);  // page 1 lives in frame 0, not 1
  EXPECT_TRUE(policy->IsResident(1));
  EXPECT_EQ(policy->resident_count(), 2u);
}

TEST_P(PolicyTest, ReuseFrameAfterErase) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  policy->OnMiss(1, 0);
  policy->OnErase(1, 0);
  policy->OnMiss(2, 0);
  EXPECT_TRUE(policy->IsResident(2));
  EXPECT_FALSE(policy->IsResident(1));
  EXPECT_TRUE(policy->CheckInvariants().ok());
}

TEST_P(PolicyTest, SingleFramePolicyWorks) {
  auto policy = MakePolicy(1);
  policy->AssertExclusiveAccess();
  ShadowPool shadow(1);
  for (PageId p = 0; p < 50; ++p) {
    Access(*policy, shadow, p % 5, AllEvictable());
    ASSERT_LE(policy->resident_count(), 1u);
    ASSERT_TRUE(policy->CheckInvariants().ok())
        << policy->CheckInvariants().ToString();
  }
}

TEST_P(PolicyTest, DeterministicVictimSequence) {
  auto run = [&](std::vector<PageId>& victims) {
    auto policy = MakePolicy();
    policy->AssertExclusiveAccess();
    ShadowPool shadow(kFrames);
    Random rng(99);
    for (int i = 0; i < 2000; ++i) {
      const PageId page = rng.Uniform(kFrames * 3);
      if (shadow.resident(page)) {
        policy->OnHit(page, shadow.frame_of(page));
      } else {
        if (shadow.full()) {
          auto victim = policy->ChooseVictim(AllEvictable(), page);
          ASSERT_TRUE(victim.ok());
          victims.push_back(victim->page);
          shadow.Evict(victim->page);
        }
        policy->OnMiss(page, shadow.Insert(page));
      }
    }
  };
  std::vector<PageId> first, second;
  run(first);
  run(second);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST_P(PolicyTest, RandomizedFuzzAgainstShadowModel) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  ShadowPool shadow(kFrames);
  Random rng(12345);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.Uniform(100);
    if (op < 70) {
      // Access a page, skewed to a small working set.
      const PageId page = rng.Bernoulli(0.7) ? rng.Uniform(kFrames)
                                             : rng.Uniform(kFrames * 8);
      Access(*policy, shadow, page, AllEvictable());
    } else if (op < 85 && !shadow.page_to_frame.empty()) {
      // Erase a random resident page.
      auto it = shadow.page_to_frame.begin();
      std::advance(it, rng.Uniform(shadow.page_to_frame.size()));
      policy->OnErase(it->first, it->second);
      shadow.Evict(it->first);
    } else if (shadow.full()) {
      // Spontaneous eviction (as the pool would on demand).
      auto victim = policy->ChooseVictim(AllEvictable(), 1 << 20);
      ASSERT_TRUE(victim.ok());
      shadow.Evict(victim->page);
    }
    ASSERT_EQ(policy->resident_count(), shadow.page_to_frame.size());
    if (step % 500 == 0) {
      ASSERT_TRUE(policy->CheckInvariants().ok())
          << policy->CheckInvariants().ToString();
      for (const auto& [page, frame] : shadow.page_to_frame) {
        ASSERT_TRUE(policy->IsResident(page)) << "page " << page;
      }
    }
  }
  EXPECT_TRUE(policy->CheckInvariants().ok());
}

TEST_P(PolicyTest, PrefetchHintNeverCrashes) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  // Empty policy, all frames.
  for (FrameId f = 0; f <= kFrames + 2; ++f) policy->PrefetchHint(f);
  for (PageId p = 0; p < kFrames; ++p) {
    policy->OnMiss(p, static_cast<FrameId>(p));
  }
  for (FrameId f = 0; f <= kFrames + 2; ++f) policy->PrefetchHint(f);
  auto victim = policy->ChooseVictim([](FrameId) { return true; }, 500);
  ASSERT_TRUE(victim.ok());
  policy->PrefetchHint(victim->frame);  // hint for an unbound frame
  SUCCEED();
}

TEST_P(PolicyTest, HitsDoNotChangeResidency) {
  auto policy = MakePolicy();
  policy->AssertExclusiveAccess();
  for (PageId p = 0; p < kFrames; ++p) {
    policy->OnMiss(p, static_cast<FrameId>(p));
  }
  Random rng(4);
  for (int i = 0; i < 5000; ++i) {
    const PageId page = rng.Uniform(kFrames);
    policy->OnHit(page, static_cast<FrameId>(page));
  }
  EXPECT_EQ(policy->resident_count(), kFrames);
  for (PageId p = 0; p < kFrames; ++p) EXPECT_TRUE(policy->IsResident(p));
  EXPECT_TRUE(policy->CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyTest,
                         ::testing::ValuesIn(KnownPolicies()),
                         [](const auto& info) {
                           std::string name = info.param;
                           if (name == "2q") return std::string("twoq");
                           return name;
                         });

TEST(PolicyFactoryTest, UnknownNameRejected) {
  auto policy = CreatePolicy("not-a-policy", 16);
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kInvalidArgument);
}

TEST(PolicyFactoryTest, ZeroFramesRejected) {
  auto policy = CreatePolicy("lru", 0);
  ASSERT_FALSE(policy.ok());
}

TEST(PolicyFactoryTest, KnownPoliciesAllConstruct) {
  for (const auto& name : KnownPolicies()) {
    auto policy = CreatePolicy(name, 8);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_EQ(policy.value()->name(), name);
  }
}

}  // namespace
}  // namespace bpw
