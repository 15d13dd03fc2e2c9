// Smoke coverage of the stress harness itself: representative stacks must
// pass the invariant net under schedule perturbation, with storage faults,
// and with page drops. The full matrix runs as the seeded stress_main ctest
// and in the CI stress job; these cases keep the harness honest inside the
// regular gtest suite.
#include <gtest/gtest.h>

#include "stress/stress_runner.h"

namespace bpw {
namespace stress {
namespace {

#if !BPW_SCHEDULE_POINTS

TEST(StressHarnessTest, RequiresSchedulePoints) {
  GTEST_SKIP() << "stress harness requires schedule points; this build has "
                  "-DBPW_SCHEDULE_POINTS=0";
}

#else

StressOptions QuickOptions(uint64_t seed) {
  StressOptions options;
  options.seed = seed;
  options.threads = 4;
  options.ops_per_thread = 4000;
  options.frames = 32;
  options.pages = 128;
  return options;
}

TEST(StressHarnessTest, BpWrapperPassesUnderPerturbation) {
  StressOptions options = QuickOptions(11);
  options.system.policy = "2q";
  options.system.coordinator = "bp-wrapper";
  options.system.prefetch = true;
  const StressResult result = RunStress(options);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_GT(result.schedule_points, 0u);
  EXPECT_GT(result.perturbations, 0u);
  EXPECT_GT(result.evictions, 0u);
  EXPECT_EQ(result.verify_mismatches, 0u);
}

TEST(StressHarnessTest, SerializedAndLockFreePassToo) {
  for (const char* coordinator : {"serialized", "clock-lockfree"}) {
    StressOptions options = QuickOptions(12);
    options.system.policy =
        std::string(coordinator) == "clock-lockfree" ? "clock" : "lru";
    options.system.coordinator = coordinator;
    const StressResult result = RunStress(options);
    EXPECT_TRUE(result.ok) << coordinator << ": " << result.failure;
  }
}

TEST(StressHarnessTest, TinyQueueExercisesLockFallback) {
  StressOptions options = QuickOptions(13);
  options.system.policy = "lru";
  options.system.coordinator = "bp-wrapper";
  options.system.queue_size = 4;
  options.system.batch_threshold = 2;
  const StressResult result = RunStress(options);
  EXPECT_TRUE(result.ok) << result.failure;
}

TEST(StressHarnessTest, SurvivesStorageFaults) {
  StressOptions options = QuickOptions(14);
  options.system.policy = "2q";
  options.system.coordinator = "bp-wrapper";
  options.faults.read_error_probability = 0.01;
  options.faults.write_error_probability = 0.01;
  options.faults.read_spike_probability = 0.005;
  options.faults.latency_spike_nanos = 20'000;
  options.faults.torn_write_probability = 0.005;
  const StressResult result = RunStress(options);
  EXPECT_TRUE(result.ok) << result.failure;
  // With these rates over ~16k ops the injector must actually have fired.
  EXPECT_GT(result.io_errors, 0u);
  EXPECT_GT(result.fault_stats.read_errors + result.fault_stats.write_errors,
            0u);
}

TEST(StressHarnessTest, SurvivesPageDrops) {
  StressOptions options = QuickOptions(15);
  options.system.policy = "lirs";
  options.system.coordinator = "bp-wrapper";
  options.drop_probability = 0.02;
  const StressResult result = RunStress(options);
  EXPECT_TRUE(result.ok) << result.failure;
}

TEST(StressHarnessTest, FailureMessageCarriesSeed) {
  // A negative tolerance makes the oracle band impossible to satisfy, so
  // the run fails deterministically and we can check the message shape.
  StressOptions options = QuickOptions(16);
  options.system.policy = "lru";
  options.system.coordinator = "serialized";
  options.hit_ratio_tolerance = -1.0;  // |Δ| > -1 is always true
  const StressResult result = RunStress(options);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("--seed=16"), std::string::npos)
      << result.failure;
}

#endif  // BPW_SCHEDULE_POINTS

}  // namespace
}  // namespace stress
}  // namespace bpw
