// The paper's central correctness claim, as a testable property:
// BP-Wrapper changes *when* replacement bookkeeping runs, never *what* it
// computes. For a single-threaded access stream, commits preserve arrival
// order and always precede victim selection, so a buffer pool using
// BP-Wrapper must produce the exact same hit/miss sequence — and therefore
// the exact same hit ratio (the Fig. 8 curve overlap) — as one taking the
// lock on every access. Parameterized over every policy and several
// workloads.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>

#include "buffer/buffer_pool.h"
#include "core/coordinator_factory.h"
#include "policy/policy_factory.h"
#include "util/random.h"
#include "workload/trace_generator.h"

namespace bpw {
namespace {

constexpr size_t kPageSize = 512;

struct RunResult {
  std::vector<bool> hit_sequence;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

RunResult RunStream(const SystemConfig& system, const WorkloadSpec& workload,
                    size_t num_frames, int accesses) {
  StorageEngine storage(workload.num_pages, kPageSize);
  auto coordinator = CreateCoordinator(system, num_frames);
  EXPECT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  BufferPoolConfig config;
  config.num_frames = num_frames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());
  auto session = pool.CreateSession();
  auto trace = CreateTrace(workload, 0);
  EXPECT_NE(trace, nullptr);

  RunResult result;
  result.hit_sequence.reserve(accesses);
  for (int i = 0; i < accesses; ++i) {
    const PageAccess access = trace->Next();
    const uint64_t hits_before = session->stats().hits;
    auto handle = pool.FetchPage(*session, access.page);
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    result.hit_sequence.push_back(session->stats().hits > hits_before);
  }
  pool.FlushSession(*session);
  result.hits = session->stats().hits;
  result.misses = session->stats().misses;
  EXPECT_TRUE(pool.CheckIntegrity().ok()) << pool.CheckIntegrity().ToString();
  return result;
}

using Param = std::tuple<std::string, std::string>;  // (policy, workload)

class EquivalenceTest : public ::testing::TestWithParam<Param> {};

TEST_P(EquivalenceTest, BatchingPreservesHitMissSequence) {
  const auto& [policy, workload_name] = GetParam();

  WorkloadSpec workload;
  workload.name = workload_name;
  workload.num_pages = 512;
  workload.seed = 7;

  constexpr size_t kFrames = 128;  // smaller than footprint: real evictions
  constexpr int kAccesses = 20000;

  SystemConfig serialized;
  serialized.policy = policy;
  serialized.coordinator = "serialized";

  SystemConfig batched;
  batched.policy = policy;
  batched.coordinator = "bp-wrapper";
  batched.queue_size = 64;
  batched.batch_threshold = 32;

  SystemConfig batched_pre = batched;
  batched_pre.prefetch = true;

  const RunResult base = RunStream(serialized, workload, kFrames, kAccesses);
  const RunResult bat = RunStream(batched, workload, kFrames, kAccesses);
  const RunResult batpre =
      RunStream(batched_pre, workload, kFrames, kAccesses);

  EXPECT_GT(base.misses, 0u) << "test needs real evictions to be meaningful";
  // No hits-assert: some policies legitimately score zero hits on the pure
  // loop workload (MQ/ARC/CAR shed it entirely); the sequence equality
  // below is still checked, just trivially, and the other workloads cover
  // the hit-heavy case.
  EXPECT_EQ(base.hit_sequence, bat.hit_sequence)
      << "batching changed replacement behaviour";
  EXPECT_EQ(base.hit_sequence, batpre.hit_sequence)
      << "prefetching changed replacement behaviour";
  EXPECT_EQ(base.hits, bat.hits);
  EXPECT_EQ(base.misses, bat.misses);
}

TEST_P(EquivalenceTest, SmallQueueSizesAlsoEquivalent) {
  const auto& [policy, workload_name] = GetParam();
  WorkloadSpec workload;
  workload.name = workload_name;
  workload.num_pages = 256;
  workload.seed = 13;

  SystemConfig serialized;
  serialized.policy = policy;
  serialized.coordinator = "serialized";
  const RunResult base = RunStream(serialized, workload, 64, 8000);

  for (size_t queue_size : {1, 2, 7}) {
    SystemConfig batched;
    batched.policy = policy;
    batched.coordinator = "bp-wrapper";
    batched.queue_size = queue_size;
    batched.batch_threshold = std::max<size_t>(1, queue_size / 2);
    const RunResult bat = RunStream(batched, workload, 64, 8000);
    EXPECT_EQ(base.hit_sequence, bat.hit_sequence)
        << "queue size " << queue_size;
  }
}

// ---------------------------------------------------------------------------
// Property-based variant: a seeded *random* trace of fetches and drops, with
// the policy's final state compared directly. After the final flush, both
// stacks must not only have produced the same hit/miss/drop outcomes — the
// wrapped policy must be in the same state, which we observe by draining it:
// repeatedly choosing victims (everything evictable) must yield the same
// eviction order from both pools.

struct RandomRunResult {
  std::vector<bool> hit_sequence;
  std::vector<bool> drop_outcomes;      // DropPage returned OK
  std::vector<PageId> drain_fingerprint;  // victim order of the final state
};

void RunRandomTraceInto(RandomRunResult* result, const SystemConfig& system,
                        uint64_t seed, uint64_t num_pages, size_t num_frames,
                        int accesses) {
  StorageEngine storage(num_pages, kPageSize);
  auto coordinator = CreateCoordinator(system, num_frames);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  BufferPoolConfig config;
  config.num_frames = num_frames;
  config.page_size = kPageSize;
  BufferPool pool(config, &storage, std::move(coordinator).value());
  auto session = pool.CreateSession();

  Random rng(seed);
  for (int i = 0; i < accesses; ++i) {
    if (rng.Bernoulli(0.05)) {
      const PageId page = rng.Uniform(num_pages);
      result->drop_outcomes.push_back(pool.DropPage(*session, page).ok());
      continue;
    }
    // 60% hot traffic over a small set, the rest uniform: enough reuse for
    // hits, enough breadth for constant eviction.
    const PageId page = rng.Bernoulli(0.6) ? rng.Uniform(num_pages / 8)
                                           : rng.Uniform(num_pages);
    const uint64_t hits_before = session->stats().hits;
    auto handle = pool.FetchPage(*session, page);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    result->hit_sequence.push_back(session->stats().hits > hits_before);
  }
  pool.FlushSession(*session);
  EXPECT_TRUE(pool.CheckIntegrity().ok()) << pool.CheckIntegrity().ToString();

  // Drain the policy (quiesced; this intentionally desynchronizes it from
  // the pool, so it is the last thing done with either).
  ReplacementPolicy* policy = pool.coordinator().mutable_policy();
  policy->AssertExclusiveAccess();  // workers joined; coordinator quiesced
  uint64_t fresh = num_pages;  // incoming ids no ghost list has ever seen
  while (policy->resident_count() > 0) {
    auto victim =
        policy->ChooseVictim([](FrameId) { return true; }, ++fresh);
    ASSERT_TRUE(victim.ok()) << victim.status().ToString();
    result->drain_fingerprint.push_back(victim.value().page);
  }
}

TEST_P(EquivalenceTest, RandomTraceWithDropsLeavesIdenticalPolicyState) {
  const auto& [policy, workload_name] = GetParam();
  // The workload dimension just diversifies the seed for this
  // property-based test.
  const uint64_t seed =
      1469598103934665603ULL ^ std::hash<std::string>{}(workload_name);
  constexpr uint64_t kPages = 384;
  constexpr size_t kFrames = 96;
  constexpr int kAccesses = 12000;

  SystemConfig serialized;
  serialized.policy = policy;
  serialized.coordinator = "serialized";

  SystemConfig batched;
  batched.policy = policy;
  batched.coordinator = "bp-wrapper";
  batched.queue_size = 64;
  batched.batch_threshold = 32;
  batched.prefetch = true;

  RandomRunResult base;
  RunRandomTraceInto(&base, serialized, seed, kPages, kFrames, kAccesses);
  RandomRunResult bat;
  RunRandomTraceInto(&bat, batched, seed, kPages, kFrames, kAccesses);

  EXPECT_EQ(base.hit_sequence, bat.hit_sequence);
  EXPECT_EQ(base.drop_outcomes, bat.drop_outcomes)
      << "drop/invalidation outcomes diverged";
  EXPECT_EQ(base.drain_fingerprint, bat.drain_fingerprint)
      << "the policies ended the identical trace in different states";
}

INSTANTIATE_TEST_SUITE_P(
    PolicyWorkloadMatrix, EquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(KnownPolicies()),
                       ::testing::Values("zipfian", "dbt2", "seqloop")),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (auto& c : name) {
        if (c == '-' || c == '2') c = c == '2' ? 'q' : '_';
      }
      // "2q" became "qq": acceptable unique identifier.
      return name;
    });

}  // namespace
}  // namespace bpw
