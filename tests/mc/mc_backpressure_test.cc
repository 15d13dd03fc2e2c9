// Full-pool back-pressure (the "backpressure" scenario): three fetchers
// miss over two frames with no eviction retries, so a miss that finds both
// frames pinned or in flight registers as a waiter and parks until a frame
// comes free. The bounded exploration must exhaust clean: no
// ResourceExhausted while a frame is unpinned (the scenario checks the pin
// census at the failing op), and no lost wakeup (a waiter left parked after
// its peers finish is reported as a deadlock).
#include <gtest/gtest.h>

#include "mc/explorer.h"
#include "mc/scenario.h"

namespace bpw {
namespace mc {
namespace {

#if BPW_SCHEDULE_POINTS

ExploreResult ExploreBackpressure(int bound) {
  auto preset = Scenario::Preset("backpressure");
  EXPECT_TRUE(preset.ok());
  ExploreOptions options;
  options.preemption_bound = bound;
  Explorer explorer(Scenario(preset.value()), options);
  CooperativeScheduler sched;
  sched.Install();
  ExploreResult result = explorer.Run(sched);
  sched.Uninstall();
  return result;
}

TEST(BackpressureScenarioTest, PresetShape) {
  auto preset = Scenario::Preset("backpressure");
  ASSERT_TRUE(preset.ok());
  EXPECT_EQ(preset.value().threads, 3);
  EXPECT_EQ(preset.value().frames, 2);
  EXPECT_EQ(preset.value().eviction_retries, 0);
}

TEST(BackpressureScenarioTest, BoundOneExhaustsClean) {
  const ExploreResult result = ExploreBackpressure(/*bound=*/1);
  EXPECT_FALSE(result.found_violation) << result.violation.message;
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GT(result.stats.executions, 1u);
}

TEST(BackpressureScenarioTest, BoundTwoExhaustsClean) {
  // Bound 2 is where both pin holders can be preempted with their pins
  // held, so the waiter really parks and must be woken by an unpin.
  const ExploreResult result = ExploreBackpressure(/*bound=*/2);
  EXPECT_FALSE(result.found_violation) << result.violation.message;
  EXPECT_TRUE(result.stats.complete);
}

#else  // !BPW_SCHEDULE_POINTS

TEST(BackpressureScenarioTest, RequiresSchedulePoints) {
  GTEST_SKIP() << "model checker requires schedule points; this build has "
                  "-DBPW_SCHEDULE_POINTS=0";
}

#endif  // BPW_SCHEDULE_POINTS

}  // namespace
}  // namespace mc
}  // namespace bpw
