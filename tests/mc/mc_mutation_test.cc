// Mutation rediscovery (ISSUE 5 acceptance): the explorer must
// deterministically rediscover the PR-2 seeded bugs as invariant
// violations, and the minimized replay for each must reproduce it.
#include <gtest/gtest.h>

#include <string>

#include "mc/explorer.h"
#include "mc/replay.h"
#include "mc/scenario.h"

namespace bpw {
namespace mc {
namespace {

#if BPW_SCHEDULE_POINTS

struct Discovery {
  ExploreResult result;
  ReplayFile replay;
};

Discovery Explore(const ScenarioConfig& config, CooperativeScheduler& sched,
                  int bound) {
  ExploreOptions options;
  options.preemption_bound = bound;
  Explorer explorer(Scenario(config), options);
  Discovery discovery;
  discovery.result = explorer.Run(sched);
  discovery.replay.config = config;
  discovery.replay.violation_kind =
      ViolationKindName(discovery.result.violation.kind);
  discovery.replay.choices = discovery.result.violating_choices;
  return discovery;
}

/// Discovery → minimize → replay: the full CLI pipeline, asserted at each
/// stage for the expected violation kind and message fragment.
void ExpectRediscovered(const ScenarioConfig& config, int bound,
                        ViolationKind kind, const std::string& fragment) {
  CooperativeScheduler sched;
  sched.Install();
  const Discovery discovery = Explore(config, sched, bound);
  ASSERT_TRUE(discovery.result.found_violation)
      << "mutation survived a bound-" << bound << " exploration ("
      << discovery.result.stats.executions << " executions)";
  EXPECT_EQ(discovery.result.violation.kind, kind)
      << discovery.result.violation.message;
  EXPECT_NE(discovery.result.violation.message.find(fragment),
            std::string::npos)
      << "got: " << discovery.result.violation.message;

  // Determinism: the same exploration finds the same counterexample.
  const Discovery again = Explore(config, sched, bound);
  ASSERT_TRUE(again.result.found_violation);
  EXPECT_EQ(again.result.violating_choices, discovery.result.violating_choices)
      << "exploration is not deterministic";
  EXPECT_EQ(again.result.stats.executions, discovery.result.stats.executions);

  // The minimized replay still reproduces the violation.
  MinimizeStats stats;
  const ReplayFile minimized = MinimizeReplay(discovery.replay, sched, &stats);
  EXPECT_LE(minimized.choices.size(), discovery.replay.choices.size());
  const ReplayOutcome outcome = RunReplay(minimized, sched);
  sched.Uninstall();
  EXPECT_TRUE(outcome.result.violated) << "minimized replay lost the bug";
  EXPECT_EQ(outcome.result.violation.kind, kind)
      << outcome.result.violation.message;
}

TEST(MutationRediscoveryTest, SkipVictimRevalidationCorruptsAPinnedFrame) {
  // PR-2 mutation #1. Under the serialized coordinator the two-thread
  // eviction scenario exposes it within two preemptions: the victim chosen
  // before the re-check window can be re-pinned by the other thread, and
  // the skipped revalidation lets the I/O overwrite the pinned frame. The
  // worker sees the foreign stamp.
  auto preset = Scenario::Preset("eviction");
  ASSERT_TRUE(preset.ok());
  ScenarioConfig config = preset.value();
  config.coordinator = "serialized";
  config.mutate_skip_victim_revalidation = true;
  ExpectRediscovered(config, /*bound=*/2, ViolationKind::kInvariant,
                     "foreign bytes");
}

TEST(MutationRediscoveryTest,
     SkipVictimRevalidationBreaksIntegrityThroughTheQueue) {
  // The same mutation through the SharedQueueCoordinator needs one more
  // preemption (the queue lock's extra decision points consume the bound).
  // It surfaces as the same direct symptom: the pinned frame is re-loaded
  // with another page under its reader.
  auto preset = Scenario::Preset("eviction");
  ASSERT_TRUE(preset.ok());
  ScenarioConfig config = preset.value();
  config.mutate_skip_victim_revalidation = true;
  ExpectRediscovered(config, /*bound=*/3, ViolationKind::kInvariant,
                     "foreign bytes");
}

TEST(MutationRediscoveryTest, SkipCommitBeforeVictimChangesTheDecisions) {
  // PR-2 mutation #2. No corruption and no race — the policy just evicts
  // the wrong page, so only serial equivalence can see it. The "serial"
  // preset's trace is built so the queued hit decides the victim.
  auto preset = Scenario::Preset("serial");
  ASSERT_TRUE(preset.ok());
  ScenarioConfig config = preset.value();
  config.mutate_skip_commit_before_victim = true;
  ExpectRediscovered(config, /*bound=*/0, ViolationKind::kInvariant,
                     "serial equivalence");
}

TEST(MutationRediscoveryTest, FaithfulTreeIsCleanWhereTheMutantsFail) {
  // Control: every scenario/bound pair that catches a mutant must pass on
  // the unmutated tree, or the "discoveries" above prove nothing.
  struct Case {
    const char* preset;
    const char* coordinator;  // nullptr = preset default
    int bound;
  };
  const Case cases[] = {
      {"eviction", "serialized", 2},
      {"serial", nullptr, 0},
  };
  CooperativeScheduler sched;
  sched.Install();
  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.preset);
    auto preset = Scenario::Preset(test_case.preset);
    ASSERT_TRUE(preset.ok());
    ScenarioConfig config = preset.value();
    if (test_case.coordinator != nullptr) {
      config.coordinator = test_case.coordinator;
    }
    const Discovery discovery = Explore(config, sched, test_case.bound);
    EXPECT_FALSE(discovery.result.found_violation)
        << discovery.result.violation.message;
    EXPECT_TRUE(discovery.result.stats.complete);
  }
  sched.Uninstall();
}

#else  // !BPW_SCHEDULE_POINTS

TEST(MutationRediscoveryTest, RequiresSchedulePoints) {
  GTEST_SKIP() << "model checker requires schedule points; this build has "
                  "-DBPW_SCHEDULE_POINTS=0";
}

#endif  // BPW_SCHEDULE_POINTS

}  // namespace
}  // namespace mc
}  // namespace bpw
