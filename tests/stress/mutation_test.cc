// Mutation self-tests: deliberately break an invariant the library relies on
// and assert the test net actually catches it. A stress harness that never
// fails proves nothing; these tests prove the detectors fire.
//
// Two mutations, one per protection layer:
//  1. BufferPoolConfig::test_skip_victim_revalidation makes the victim
//     claim ignore pins (no pre-check, no shard scan), so an evictor can
//     overwrite a frame a reader holds pinned. The stress harness must
//     observe the resulting corruption — a stamp mismatch, an integrity
//     violation, or a wedged stale mapping — and report it with the
//     reproduction seed.
//  2. BpWrapperCoordinator::Options::test_skip_commit_before_victim drops
//     the Fig. 4 "commit queued accesses before selecting a victim" rule.
//     Single-threaded equivalence with the serialized coordinator (the
//     paper's central claim, tests/equivalence_test.cc) must break.
#include <gtest/gtest.h>

#include "buffer/buffer_pool.h"
#include "core/bp_wrapper.h"
#include "policy/policy_factory.h"
#include "stress/stress_runner.h"
#include "workload/trace_generator.h"

namespace bpw {
namespace {

// The two perturbation-driven mutation tests need schedule points; the
// single-threaded equivalence mutation below runs either way.
#if !BPW_SCHEDULE_POINTS

TEST(MutationTest, RequiresSchedulePoints) {
  GTEST_SKIP() << "perturbation-driven mutation tests require schedule "
                  "points; this build has -DBPW_SCHEDULE_POINTS=0";
}

#else

stress::StressOptions MutationStressOptions(uint64_t seed) {
  stress::StressOptions options;
  options.seed = seed;
  options.system.policy = "lru";
  options.system.coordinator = "bp-wrapper";
  options.threads = 4;
  options.ops_per_thread = 6000;
  // Tiny pool, big page set: almost every access evicts, maximizing the
  // claims the mutant makes on frames a reader holds pinned.
  options.frames = 16;
  options.pages = 96;
  options.hot_probability = 0.5;
  options.dirty_probability = 0.3;
  // Hold pins and claims open longer (the pool.evict_claim point sits just
  // before the claim's CAS, under the policy lock).
  options.schedule.sleep_probability = 0.02;
  options.schedule.max_sleep_micros = 200;
  return options;
}

TEST(MutationTest, HarnessCatchesSkippedVictimRevalidation) {
  // The corruption is a race, so probe seeds until one fires; with the
  // perturbation and ~24k evicting accesses per run, detection is
  // near-certain per seed (the first seed catches it almost always, so the
  // long tail of the list costs nothing). The list is long because a
  // heavily loaded machine can starve the interleaving for a seed or two.
  uint64_t failing_seed = 0;
  std::string failure;
  for (uint64_t seed : {101, 102, 103, 104, 105, 106, 107, 108, 109, 110}) {
    stress::StressOptions options = MutationStressOptions(seed);
    options.mutate_skip_victim_revalidation = true;
    const stress::StressResult result = stress::RunStress(options);
    if (!result.ok) {
      failing_seed = seed;
      failure = result.failure;
      break;
    }
  }
  ASSERT_NE(failing_seed, 0u)
      << "mutated victim re-validation was not detected by any probed seed; "
         "the stress harness has lost its corruption detector";
  // The failure must tell the user how to reproduce it.
  EXPECT_NE(failure.find("--seed=" + std::to_string(failing_seed)),
            std::string::npos)
      << failure;
}

TEST(MutationTest, UnmutatedControlRunPasses) {
  // Identical workload and perturbation, re-validation intact: must be
  // green, or the previous test is reading noise.
  const stress::StressResult result = stress::RunStress(
      MutationStressOptions(101));
  EXPECT_TRUE(result.ok) << result.failure;
}

#endif  // BPW_SCHEDULE_POINTS

// Single-threaded hit/miss sequence of a buffer pool, for the equivalence
// mutation below.
std::vector<bool> HitSequence(std::unique_ptr<Coordinator> coordinator,
                              int accesses) {
  constexpr size_t kFrames = 64;
  constexpr size_t kPageSize = 256;
  WorkloadSpec workload;
  workload.name = "zipfian";
  workload.num_pages = 256;
  workload.seed = 7;

  StorageEngine storage(workload.num_pages, kPageSize);
  BufferPoolConfig config;
  config.num_frames = kFrames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator));
  auto session = pool.CreateSession();
  auto trace = CreateTrace(workload, 0);

  std::vector<bool> hits;
  hits.reserve(accesses);
  for (int i = 0; i < accesses; ++i) {
    const uint64_t before = session->stats().hits;
    auto handle = pool.FetchPage(*session, trace->Next().page);
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    hits.push_back(session->stats().hits > before);
  }
  pool.FlushSession(*session);
  return hits;
}

TEST(MutationTest, EquivalenceCatchesSkippedCommitBeforeVictim) {
  constexpr int kAccesses = 20000;
  constexpr size_t kFrames = 64;

  auto make_policy = [] {
    auto policy = CreatePolicy("lru", kFrames);
    EXPECT_TRUE(policy.ok());
    return std::move(policy).value();
  };

  BpWrapperCoordinator::Options faithful;
  faithful.queue_size = 64;
  faithful.batch_threshold = 32;

  BpWrapperCoordinator::Options mutated = faithful;
  mutated.test_skip_commit_before_victim = true;

  const std::vector<bool> base = HitSequence(
      std::make_unique<BpWrapperCoordinator>(make_policy(), faithful),
      kAccesses);
  const std::vector<bool> broken = HitSequence(
      std::make_unique<BpWrapperCoordinator>(make_policy(), mutated),
      kAccesses);

  // Committing after victim selection feeds the policy stale history, so
  // some victim choice must differ and the hit/miss sequence with it. If
  // this ever holds, the equivalence tests have gone blind.
  EXPECT_NE(base, broken)
      << "skipping commit-before-victim did not change behaviour; the "
         "single-thread equivalence property has lost its teeth";
}

}  // namespace
}  // namespace bpw
