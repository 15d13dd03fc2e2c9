// Race-certifier acceptance: the clean tree certifies race-free over the
// explored spaces, and a seeded GUARDED_BY-violating mutation (a
// BP-Wrapper commit without the policy lock) is caught as a vector-clock
// race.
#include <gtest/gtest.h>

#include <string>

#include "mc/explorer.h"
#include "mc/replay.h"
#include "mc/scenario.h"

namespace bpw {
namespace mc {
namespace {

#if BPW_SCHEDULE_POINTS

ExploreResult Explore(const ScenarioConfig& config,
                      CooperativeScheduler& sched, int bound) {
  ExploreOptions options;
  options.preemption_bound = bound;
  Explorer explorer(Scenario(config), options);
  return explorer.Run(sched);
}

TEST(RaceCertificationTest, CleanTreeCertifiesRaceFree) {
  // Every preset, explored at bound 1: zero races, and the certifier must
  // actually have checked accesses (an instrumentation hole would certify
  // vacuously).
  CooperativeScheduler sched;
  sched.Install();
  for (const std::string& name : Scenario::PresetNames()) {
    SCOPED_TRACE(name);
    auto preset = Scenario::Preset(name);
    ASSERT_TRUE(preset.ok());
    const ExploreResult result = Explore(preset.value(), sched, /*bound=*/1);
    EXPECT_FALSE(result.found_violation) << result.violation.message;
    EXPECT_TRUE(result.stats.complete);
    EXPECT_GT(result.stats.races_checked, 0u)
        << "no accesses certified: instrumentation hole?";
  }
  sched.Uninstall();
}

TEST(RaceCertificationTest, CommitWithoutLockIsCaughtAsARace) {
  // The seeded mutation drains a thread's BP-Wrapper queue at the batch
  // threshold without taking the policy lock, violating the policy's
  // serialization contract. The certifier sees the unordered write pair on
  // the policy's exclusive-access location within one preemption.
  auto preset = Scenario::Preset("race");
  ASSERT_TRUE(preset.ok());
  ScenarioConfig config = preset.value();
  config.mutate_commit_without_lock = true;
  CooperativeScheduler sched;
  sched.Install();
  const ExploreResult result = Explore(config, sched, /*bound=*/1);
  ASSERT_TRUE(result.found_violation)
      << "mutation survived " << result.stats.executions << " executions";
  EXPECT_EQ(result.violation.kind, ViolationKind::kRace)
      << result.violation.message;
  EXPECT_NE(result.violation.message.find("policy.exclusive"),
            std::string::npos)
      << "got: " << result.violation.message;

  // The replay pipeline reproduces the race.
  ReplayFile replay;
  replay.config = config;
  replay.violation_kind = ViolationKindName(result.violation.kind);
  replay.choices = result.violating_choices;
  const ReplayFile minimized = MinimizeReplay(replay, sched);
  const ReplayOutcome outcome = RunReplay(minimized, sched);
  sched.Uninstall();
  EXPECT_TRUE(outcome.result.violated);
  EXPECT_EQ(outcome.result.violation.kind, ViolationKind::kRace)
      << outcome.result.violation.message;
  EXPECT_NE(outcome.result.violation.message.find("policy.exclusive"),
            std::string::npos);
}

TEST(RaceCertificationTest, CertifierCountsScaleWithTheSpace) {
  // Sanity on the reporting the CLI prints: accesses certified accumulates
  // across executions, so a wider bound certifies at least as much.
  auto preset = Scenario::Preset("race");
  ASSERT_TRUE(preset.ok());
  CooperativeScheduler sched;
  sched.Install();
  const ExploreResult narrow = Explore(preset.value(), sched, /*bound=*/0);
  const ExploreResult wide = Explore(preset.value(), sched, /*bound=*/1);
  sched.Uninstall();
  EXPECT_FALSE(narrow.found_violation);
  EXPECT_FALSE(wide.found_violation);
  EXPECT_GE(wide.stats.races_checked, narrow.stats.races_checked);
  EXPECT_GT(wide.stats.executions, narrow.stats.executions);
}

#else  // !BPW_SCHEDULE_POINTS

TEST(RaceCertificationTest, RequiresSchedulePoints) {
  GTEST_SKIP() << "model checker requires schedule points; this build has "
                  "-DBPW_SCHEDULE_POINTS=0";
}

#endif  // BPW_SCHEDULE_POINTS

}  // namespace
}  // namespace mc
}  // namespace bpw
