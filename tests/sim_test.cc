// Tests for the multiprocessor simulator: determinism, conservation
// properties, and the qualitative shapes it exists to reproduce.
#include <gtest/gtest.h>

#include "harness/systems.h"
#include "sim/sim_driver.h"

namespace bpw {
namespace {

DriverConfig BaseConfig(const std::string& system_name, uint32_t procs) {
  DriverConfig config = ScalabilityRunConfig("dbt2", 4096, 50);
  config.warmup_ms = 10;
  config.num_threads = procs;
  auto system = PaperSystemConfig(system_name);
  EXPECT_TRUE(system.ok());
  config.system = system.value();
  return config;
}

double SimTps(const std::string& system, uint32_t procs,
              const SimCosts& costs = SimCosts()) {
  auto result = RunSimulation(BaseConfig(system, procs), costs);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->throughput_tps;
}

TEST(SimTest, DeterministicAcrossRuns) {
  auto a = RunSimulation(BaseConfig("pgBatPre", 8));
  auto b = RunSimulation(BaseConfig("pgBatPre", 8));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->transactions, b->transactions);
  EXPECT_EQ(a->accesses, b->accesses);
  EXPECT_EQ(a->lock.acquisitions, b->lock.acquisitions);
  EXPECT_EQ(a->lock.contentions, b->lock.contentions);
}

TEST(SimTest, RejectsBadConfigs) {
  DriverConfig config = BaseConfig("pg2Q", 0);
  EXPECT_FALSE(RunSimulation(config).ok());
  config = BaseConfig("pg2Q", 2);
  config.workload.name = "nope";
  EXPECT_FALSE(RunSimulation(config).ok());
  config = BaseConfig("pg2Q", 2);
  config.system.coordinator = "clock-lockfree";
  config.system.policy = "lru";
  EXPECT_FALSE(RunSimulation(config).ok());
}

TEST(SimTest, ZeroMissWhenPrewarmedAndSized) {
  auto result = RunSimulation(BaseConfig("pg2Q", 4));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->misses, 0u);
  EXPECT_DOUBLE_EQ(result->hit_ratio, 1.0);
  EXPECT_GT(result->accesses, 0u);
}

TEST(SimTest, SingleProcessorNeverContends) {
  for (const auto& system : PaperSystemNames()) {
    auto result = RunSimulation(BaseConfig(system, 1));
    ASSERT_TRUE(result.ok()) << system;
    EXPECT_EQ(result->lock.contentions, 0u) << system;
  }
}

TEST(SimTest, ClockScalesNearlyLinearly) {
  const double t1 = SimTps("pgClock", 1);
  const double t16 = SimTps("pgClock", 16);
  EXPECT_GT(t16, t1 * 13) << "pgClock must scale nearly linearly";
}

TEST(SimTest, SerializedTwoQSaturates) {
  const double t4 = SimTps("pg2Q", 4);
  const double t16 = SimTps("pg2Q", 16);
  // The paper's central observation: beyond saturation adding processors
  // does not help (and slightly hurts).
  EXPECT_LT(t16, t4 * 1.2) << "pg2Q must saturate by ~4 processors";
}

TEST(SimTest, BatchingTracksClock) {
  const double clock = SimTps("pgClock", 16);
  const double bat = SimTps("pgBat", 16);
  const double batpre = SimTps("pgBatPre", 16);
  EXPECT_GT(bat, clock * 0.85) << "pgBat must track pgClock";
  EXPECT_GT(batpre, clock * 0.85) << "pgBatPre must track pgClock";
}

TEST(SimTest, BatchingBeatsSerializedAtScale) {
  const double serialized = SimTps("pg2Q", 16);
  const double batched = SimTps("pgBat", 16);
  EXPECT_GT(batched, serialized * 2)
      << "the paper's headline: ~2x throughput from removing contention";
}

TEST(SimTest, PrefetchAloneHelpsButLess) {
  const double base = SimTps("pg2Q", 16);
  const double pre = SimTps("pgPre", 16);
  const double bat = SimTps("pgBat", 16);
  EXPECT_GT(pre, base) << "prefetching alone must help";
  EXPECT_GT(bat, pre) << "batching must beat prefetching alone (§IV-D)";
}

TEST(SimTest, ContentionOrdering) {
  auto pg2q = RunSimulation(BaseConfig("pg2Q", 16));
  auto bat = RunSimulation(BaseConfig("pgBat", 16));
  ASSERT_TRUE(pg2q.ok());
  ASSERT_TRUE(bat.ok());
  EXPECT_GT(pg2q->contentions_per_million, 1000.0);
  EXPECT_LT(bat->contentions_per_million,
            pg2q->contentions_per_million / 50)
      << "batching must cut contention by orders of magnitude";
}

TEST(SimTest, ResponseTimeGrowsWithContention) {
  auto few = RunSimulation(BaseConfig("pg2Q", 2));
  auto many = RunSimulation(BaseConfig("pg2Q", 16));
  ASSERT_TRUE(few.ok());
  ASSERT_TRUE(many.ok());
  EXPECT_GT(many->avg_response_us, few->avg_response_us * 2);
}

TEST(SimTest, LockTimePerAccessFallsWithBatchSize) {
  double previous = 1e18;
  for (size_t batch : {1, 8, 64}) {
    DriverConfig config = BaseConfig("pgBatPre", 16);
    config.system.queue_size = batch;
    config.system.batch_threshold = batch;
    auto result = RunSimulation(config);
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->lock_nanos_per_access, previous)
        << "batch " << batch << " (the Fig. 2 trend)";
    previous = result->lock_nanos_per_access;
  }
}

TEST(SimTest, ThresholdEqualToQueueForcesBlocking) {
  DriverConfig half = BaseConfig("pgBatPre", 16);
  half.system.queue_size = 64;
  half.system.batch_threshold = 32;
  DriverConfig full = half;
  full.system.batch_threshold = 64;
  auto r_half = RunSimulation(half);
  auto r_full = RunSimulation(full);
  ASSERT_TRUE(r_half.ok());
  ASSERT_TRUE(r_full.ok());
  // Table III's endpoint: with no TryLock window every busy encounter
  // blocks.
  EXPECT_GT(r_full->contentions_per_million * 1.0 + 1.0,
            r_half->contentions_per_million + 1.0);
}

TEST(SimTest, MissesCostSimulatedIo) {
  DriverConfig config = BaseConfig("pg2Q", 4);
  config.num_frames = 64;  // far below the 4096-page footprint
  config.prewarm = false;
  SimCosts costs;
  costs.io_read = 100'000;  // 0.1 ms
  auto result = RunSimulation(config, costs);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->misses, 0u);
  EXPECT_LT(result->hit_ratio, 1.0);
  EXPECT_GT(result->evictions, 0u);
  // Throughput must be far below the zero-miss run's.
  auto fast = RunSimulation(BaseConfig("pg2Q", 4));
  ASSERT_TRUE(fast.ok());
  EXPECT_LT(result->throughput_tps, fast->throughput_tps / 2);
}

TEST(SimTest, DirtyEvictionsWriteBack) {
  DriverConfig config = BaseConfig("pg2Q", 4);
  config.num_frames = 128;
  config.prewarm = false;
  config.workload.name = "dbt2";  // has writes
  SimCosts costs;
  costs.io_read = 100'000;
  costs.io_write = 100'000;
  auto result = RunSimulation(config, costs);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->writebacks, 0u);
}

TEST(SimTest, HitRatioMatchesRealPoolSingleStream) {
  // The simulator hosts the real policy: its hit ratio on one processor
  // must match the real buffer pool's on the same trace. (Count-based so
  // both consume exactly the same number of transactions.)
  DriverConfig config;
  config.workload.name = "dbt1";
  config.workload.num_pages = 2048;
  config.num_threads = 1;
  config.transactions_per_thread = 2000;
  config.num_frames = 256;
  config.prewarm = false;
  config.system.policy = "2q";
  config.system.coordinator = "serialized";
  config.page_size = 512;
  config.think_work = 1;
  auto sim = RunSimulation(config);
  auto real = RunDriver(config);
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE(real.ok()) << real.status().ToString();
  EXPECT_EQ(sim->hits, real->hits);
  EXPECT_EQ(sim->misses, real->misses);
}

TEST(SimTest, BatchingPreservesHitRatioInSim) {
  DriverConfig config = BaseConfig("pg2Q", 8);
  config.num_frames = 512;
  config.prewarm = false;
  auto serialized = RunSimulation(config);
  config.system = PaperSystemConfig("pgBatPre").value();
  auto batched = RunSimulation(config);
  ASSERT_TRUE(serialized.ok());
  ASSERT_TRUE(batched.ok());
  // Multi-processor interleavings differ, so exact equality is not
  // required — but the ratios must be close (Fig. 8's overlapping curves).
  EXPECT_NEAR(serialized->hit_ratio, batched->hit_ratio, 0.02);
}

TEST(SimTest, TwoQOutHitsClockInSim) {
  auto run = [](const char* system) {
    DriverConfig config;
    config.workload.name = "seqloop";
    config.workload.num_pages = 600;
    config.num_threads = 2;
    config.duration_ms = 200;
    config.warmup_ms = 100;
    config.num_frames = 512;
    config.prewarm = false;
    config.system = PaperSystemConfig(system).value();
    SimCosts costs;
    costs.io_read = 100'000;
    auto result = RunSimulation(config, costs);
    EXPECT_TRUE(result.ok());
    return result->hit_ratio;
  };
  EXPECT_GT(run("pg2Q"), run("pgClock") + 0.2)
      << "2Q's ghost list must beat clock on a loop";
}

TEST(SimTest, NumaSingleNodeIsBitIdentical) {
  // numa_nodes = 1 must preserve the original (P-1)/P coherence scaling
  // exactly — every existing baseline depends on it.
  SimCosts numa1;
  numa1.numa_nodes = 1;
  auto base = RunSimulation(BaseConfig("pgBatPre", 8));
  auto under_numa1 = RunSimulation(BaseConfig("pgBatPre", 8), numa1);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(under_numa1.ok());
  EXPECT_EQ(base->transactions, under_numa1->transactions);
  EXPECT_EQ(base->lock.acquisitions, under_numa1->lock.acquisitions);
  EXPECT_DOUBLE_EQ(base->throughput_tps, under_numa1->throughput_tps);
}

TEST(SimTest, NumaRemotePenaltySlowsCoherenceBoundSystems) {
  // With 4 nodes most peers are remote, so [coh] transfers cost more and
  // a coherence-bound stack loses throughput relative to flat SMP.
  SimCosts numa4;
  numa4.numa_nodes = 4;
  numa4.numa_remote_mult = 4.0;
  const double flat = SimTps("pg2Q", 16);
  const double numa = SimTps("pg2Q", 16, numa4);
  EXPECT_LT(numa, flat)
      << "cross-node coherence transfers must cost throughput";
}

TEST(SimMatrixTest, RunsAllCells) {
  DriverConfig base = ScalabilityRunConfig("dbt1", 2048, 20);
  base.warmup_ms = 5;
  auto cells = RunSystemMatrixSim(base, {"pgClock", "pg2Q"}, {1, 4},
                                  SimCosts());
  ASSERT_TRUE(cells.ok());
  EXPECT_EQ(cells->size(), 4u);
  for (const auto& cell : cells.value()) {
    EXPECT_GT(cell.result.transactions, 0u);
  }
}

}  // namespace
}  // namespace bpw
