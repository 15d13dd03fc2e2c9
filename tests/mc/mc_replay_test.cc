// Replay-format tests (ISSUE 5 satellite 4): serialize/parse round-trips,
// bit-identical re-execution of a recorded trace, and the
// minimizer-shrinks-monotonically property.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "mc/explorer.h"
#include "mc/replay.h"
#include "mc/scenario.h"

namespace bpw {
namespace mc {
namespace {

#if BPW_SCHEDULE_POINTS

ReplayFile SampleReplay() {
  ReplayFile replay;
  replay.config.name = "custom";
  replay.config.coordinator = "serialized";  // not the default
  replay.config.policy = "clock";
  replay.config.threads = 3;
  replay.config.pages = 5;
  replay.config.frames = 3;
  replay.config.queue_size = 8;
  replay.config.batch_threshold = 3;
  replay.config.ops_per_thread = 7;
  replay.config.thread_traces = {{1, 2}, {3}, {0, 4, 4}};
  replay.config.check_serial_equivalence = true;
  replay.config.mutate_skip_victim_revalidation = true;
  replay.config.mutate_commit_without_lock = true;
  replay.config.max_decisions = 1234;
  replay.violation_kind = "invariant";
  replay.choices = {0, 2, 1, 1, 0};
  return replay;
}

TEST(ReplayFormatTest, SerializeParseRoundTrip) {
  const ReplayFile replay = SampleReplay();
  const std::string text = SerializeReplay(replay);
  auto parsed = ParseReplay(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ReplayFile& back = parsed.value();
  EXPECT_EQ(back.version, replay.version);
  EXPECT_EQ(back.config.name, replay.config.name);
  EXPECT_EQ(back.config.coordinator, replay.config.coordinator);
  EXPECT_EQ(back.config.policy, replay.config.policy);
  EXPECT_EQ(back.config.threads, replay.config.threads);
  EXPECT_EQ(back.config.pages, replay.config.pages);
  EXPECT_EQ(back.config.frames, replay.config.frames);
  EXPECT_EQ(back.config.queue_size, replay.config.queue_size);
  EXPECT_EQ(back.config.batch_threshold, replay.config.batch_threshold);
  EXPECT_EQ(back.config.ops_per_thread, replay.config.ops_per_thread);
  EXPECT_EQ(back.config.thread_traces, replay.config.thread_traces);
  EXPECT_EQ(back.config.check_serial_equivalence,
            replay.config.check_serial_equivalence);
  EXPECT_EQ(back.config.mutate_skip_victim_revalidation,
            replay.config.mutate_skip_victim_revalidation);
  EXPECT_EQ(back.config.mutate_skip_commit_before_victim,
            replay.config.mutate_skip_commit_before_victim);
  EXPECT_EQ(back.config.mutate_commit_without_lock,
            replay.config.mutate_commit_without_lock);
  EXPECT_EQ(back.config.max_decisions, replay.config.max_decisions);
  EXPECT_EQ(back.violation_kind, replay.violation_kind);
  EXPECT_EQ(back.choices, replay.choices);
  // A second serialize of the parsed value must be byte-identical: the
  // format has one canonical rendering.
  EXPECT_EQ(SerializeReplay(back), text);
}

TEST(ReplayFormatTest, FileRoundTrip) {
  const ReplayFile replay = SampleReplay();
  const std::string path =
      ::testing::TempDir() + "/bpw_mc_replay_roundtrip.txt";
  Status written = WriteReplayFile(replay, path);
  ASSERT_TRUE(written.ok()) << written.ToString();
  auto back = ReadReplayFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SerializeReplay(back.value()), SerializeReplay(replay));
}

TEST(ReplayFormatTest, RejectsGarbage) {
  EXPECT_FALSE(ParseReplay("").ok());
  EXPECT_FALSE(ParseReplay("not-a-replay 1\nend\n").ok());
  EXPECT_FALSE(ParseReplay("bpw-mc-replay 99\nend\n").ok()) << "bad version";
  // Truncated: no "end" terminator.
  std::string text = SerializeReplay(SampleReplay());
  text.resize(text.size() / 2);
  EXPECT_FALSE(ParseReplay(text).ok());
}

TEST(ReplayFormatTest, UnknownParamsAreSkipped) {
  std::string text = SerializeReplay(SampleReplay());
  const std::string anchor = "violation";
  const size_t pos = text.find(anchor);
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "param some_future_knob 42\n");
  auto parsed = ParseReplay(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().config.threads, 3);
}

/// Explores `config` until it finds a violation; returns the replay.
ReplayFile FindViolation(const ScenarioConfig& config,
                         CooperativeScheduler& sched, int bound,
                         ViolationKind expected_kind) {
  ExploreOptions options;
  options.preemption_bound = bound;
  Explorer explorer(Scenario(config), options);
  const ExploreResult result = explorer.Run(sched);
  EXPECT_TRUE(result.found_violation);
  EXPECT_EQ(result.violation.kind, expected_kind) << result.violation.message;
  ReplayFile replay;
  replay.config = config;
  replay.violation_kind = ViolationKindName(result.violation.kind);
  replay.choices = result.violating_choices;
  return replay;
}

TEST(ReplayExecutionTest, ReExecutionIsBitIdentical) {
  auto preset = Scenario::Preset("eviction");
  ASSERT_TRUE(preset.ok());
  CooperativeScheduler sched;
  sched.Install();
  // Record one clean execution (default chooser via empty choices), then
  // re-run it twice: the canonical run records must match byte for byte.
  ReplayFile replay;
  replay.config = preset.value();
  const ReplayOutcome first = RunReplay(replay, sched);
  EXPECT_FALSE(first.result.violated) << first.result.violation.message;
  // Replay the decisions the first run actually made.
  replay.choices = first.result.decisions;
  const ReplayOutcome second = RunReplay(replay, sched);
  const ReplayOutcome third = RunReplay(replay, sched);
  sched.Uninstall();
  EXPECT_EQ(second.fallbacks, 0u)
      << "a recorded trace must replay without fallbacks";
  EXPECT_EQ(third.fallbacks, 0u);
  const std::string record2 = SerializeRunRecord(second.result);
  const std::string record3 = SerializeRunRecord(third.result);
  EXPECT_FALSE(record2.empty());
  EXPECT_EQ(record2, record3) << "same choices, different executions: the "
                                 "scenario is nondeterministic";
  EXPECT_EQ(second.result.decisions, first.result.decisions);
  EXPECT_EQ(second.result.signatures, first.result.signatures);
}

TEST(ReplayExecutionTest, PastEndFallsBackDeterministically) {
  auto preset = Scenario::Preset("eviction");
  ASSERT_TRUE(preset.ok());
  CooperativeScheduler sched;
  sched.Install();
  ReplayFile replay;
  replay.config = preset.value();
  replay.choices = {0, 0, 0};  // far shorter than the execution needs
  const ReplayOutcome a = RunReplay(replay, sched);
  const ReplayOutcome b = RunReplay(replay, sched);
  sched.Uninstall();
  EXPECT_GT(a.fallbacks, 0u);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(SerializeRunRecord(a.result), SerializeRunRecord(b.result));
}

TEST(ReplayMinimizeTest, ShrinksMonotonicallyAndPreservesTheViolation) {
  // Property test over every mutation the checker knows: minimization must
  // (a) never grow the trace, (b) keep the violation kind, and (c) be
  // idempotent-or-shrinking when applied again.
  struct Case {
    const char* preset;
    int bound;
    ViolationKind kind;
    void (*mutate)(ScenarioConfig&);
  };
  const Case cases[] = {
      {"serial", 0, ViolationKind::kInvariant,
       [](ScenarioConfig& c) { c.mutate_skip_commit_before_victim = true; }},
      {"race", 1, ViolationKind::kRace,
       [](ScenarioConfig& c) { c.mutate_commit_without_lock = true; }},
  };
  CooperativeScheduler sched;
  sched.Install();
  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.preset);
    auto preset = Scenario::Preset(test_case.preset);
    ASSERT_TRUE(preset.ok());
    ScenarioConfig config = preset.value();
    test_case.mutate(config);
    ReplayFile replay =
        FindViolation(config, sched, test_case.bound, test_case.kind);

    MinimizeStats stats;
    const ReplayFile minimized = MinimizeReplay(replay, sched, &stats);
    EXPECT_LE(minimized.choices.size(), replay.choices.size())
        << "minimization grew the trace";
    EXPECT_EQ(stats.shrunk_from, replay.choices.size());
    EXPECT_EQ(stats.shrunk_to, minimized.choices.size());
    EXPECT_GT(stats.attempts, 0u);

    // The shrunk trace still reproduces the same violation kind.
    const ReplayOutcome outcome = RunReplay(minimized, sched);
    EXPECT_TRUE(outcome.result.violated);
    EXPECT_EQ(outcome.result.violation.kind, test_case.kind)
        << outcome.result.violation.message;

    // Re-minimizing cannot grow.
    const ReplayFile twice = MinimizeReplay(minimized, sched);
    EXPECT_LE(twice.choices.size(), minimized.choices.size());
  }
  sched.Uninstall();
}

TEST(ReplayMinimizeTest, CleanTraceIsReturnedUnchanged) {
  auto preset = Scenario::Preset("eviction");
  ASSERT_TRUE(preset.ok());
  CooperativeScheduler sched;
  sched.Install();
  ReplayFile replay;
  replay.config = preset.value();
  replay.choices = {0, 1, 0};  // replays clean (fallbacks finish the run)
  MinimizeStats stats;
  const ReplayFile minimized = MinimizeReplay(replay, sched, &stats);
  sched.Uninstall();
  EXPECT_EQ(minimized.choices, replay.choices)
      << "non-violating input must pass through untouched";
}

#else  // !BPW_SCHEDULE_POINTS

TEST(ReplayFormatTest, RequiresSchedulePoints) {
  GTEST_SKIP() << "model checker requires schedule points; this build has "
                  "-DBPW_SCHEDULE_POINTS=0";
}

#endif  // BPW_SCHEDULE_POINTS

}  // namespace
}  // namespace mc
}  // namespace bpw
