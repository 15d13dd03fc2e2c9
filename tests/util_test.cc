// Tests for util: Status/StatusOr, flag parsing, Random, clocks, cache
// alignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "util/cacheline.h"
#include "util/clock.h"
#include "util/flag_parse.h"
#include "util/random.h"
#include "util/status.h"

namespace bpw {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("page 7");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "page 7");
  EXPECT_EQ(s.ToString(), "NotFound: page 7");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::Corruption("").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::ResourceExhausted("").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Aborted("").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Corruption("x"));
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fails = [] { return Status::Aborted("inner"); };
  auto outer = [&]() -> Status {
    BPW_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kAborted);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string(100, 'x'));
  std::string out = std::move(v).value();
  EXPECT_EQ(out.size(), 100u);
}

TEST(FlagParseTest, UintTakesTheWholeStringInRange) {
  EXPECT_EQ(*ParseUintFlag("--n", "0"), 0u);
  EXPECT_EQ(*ParseUintFlag("--n", "4096"), 4096u);
  EXPECT_EQ(*ParseUintFlag("--n", "18446744073709551615"),
            18446744073709551615ull);
  EXPECT_EQ(*ParseUintFlag("--n", "7", 7), 7u);
}

TEST(FlagParseTest, UintRejectsPrefixesGarbageSignsAndOverflow) {
  for (const char* bad : {"", "abc", "50x", "1x", " 5", "5 ", "-1", "+1",
                          "0x10", "1.5", "18446744073709551616"}) {
    auto parsed = ParseUintFlag("--threads", bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_TRUE(parsed.status().IsInvalidArgument());
    EXPECT_NE(parsed.status().message().find("--threads"), std::string::npos)
        << "the error must name the flag";
  }
  EXPECT_FALSE(ParseUintFlag("--n", "8", 7).ok()) << "above max";
}

TEST(FlagParseTest, DoubleTakesTheWholeStringAndStaysFinite) {
  EXPECT_DOUBLE_EQ(*ParseDoubleFlag("--p", "0.95"), 0.95);
  EXPECT_DOUBLE_EQ(*ParseDoubleFlag("--p", "1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(*ParseDoubleFlag("--p", "-0.5"), -0.5);
  for (const char* bad : {"", "x", "0.95x", " 1", "nan", "inf", "1e999"}) {
    auto parsed = ParseDoubleFlag("--confidence", bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_NE(parsed.status().message().find("--confidence"),
              std::string::npos);
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RandomTest, UniformRespectsBound) {
  Random rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RandomTest, UniformOneIsAlwaysZero) {
  Random rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Uniform(1), 0u);
}

TEST(RandomTest, UniformRangeInclusive) {
  Random rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformRange(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values appear
}

TEST(RandomTest, UniformCoversRangeRoughlyEvenly) {
  Random rng(23);
  constexpr int kBuckets = 16;
  constexpr int kSamples = 160000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.Uniform(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kSamples / kBuckets * 0.9);
    EXPECT_LT(c, kSamples / kBuckets * 1.1);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(9);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, BernoulliRate) {
  Random rng(17);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += rng.Bernoulli(0.3);
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.02);
}

TEST(ClockTest, NowNanosMonotonic) {
  uint64_t a = NowNanos();
  uint64_t b = NowNanos();
  EXPECT_LE(a, b);
}

TEST(ClockTest, SpinWorkScalesWithIterations) {
  // More iterations must take longer (very coarse sanity bound). Take the
  // minimum over a few trials: a preemption can inflate any single
  // measurement by milliseconds on a loaded test machine, but it can never
  // deflate one, so the minima compare the true spin costs.
  auto min_spin_nanos = [](uint64_t iterations) {
    uint64_t best = ~0ULL;
    for (int trial = 0; trial < 3; ++trial) {
      Stopwatch sw;
      SpinWork(iterations);
      best = std::min(best, sw.ElapsedNanos());
    }
    return best;
  };
  EXPECT_GT(min_spin_nanos(2000000), min_spin_nanos(200000));
}

TEST(ClockTest, BusyWaitReachesDeadline) {
  Stopwatch sw;
  BusyWaitNanos(2000000);  // 2 ms
  EXPECT_GE(sw.ElapsedNanos(), 2000000u);
}

TEST(ClockTest, BusyWaitZeroReturnsImmediately) {
  Stopwatch sw;
  BusyWaitNanos(0);
  EXPECT_LT(sw.ElapsedNanos(), 1000000u);
}

TEST(CacheAlignedTest, DistinctLines) {
  CacheAligned<int> arr[4];
  for (int i = 0; i < 3; ++i) {
    auto a = reinterpret_cast<uintptr_t>(&arr[i]);
    auto b = reinterpret_cast<uintptr_t>(&arr[i + 1]);
    EXPECT_GE(b - a, kCacheLineSize);
  }
}

}  // namespace
}  // namespace bpw
