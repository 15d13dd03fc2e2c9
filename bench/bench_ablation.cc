// Ablation bench (ours, motivated by the paper's design discussion):
//
//  A. Distributed locks (§V-A) vs BP-Wrapper: a hash-partitioned buffer
//     with per-partition locks against one global policy behind BP-Wrapper.
//     Two effects measured: (1) raw contention/throughput under a skewed
//     OLTP load where hot pages hash to few partitions; (2) the hit-ratio
//     cost of localizing history to small partitions.
//  B. TryLock protocol: batch threshold = queue/2 (TryLock gets a chance)
//     vs threshold = queue (every commit is a blocking Lock), isolating the
//     value of the non-blocking attempt.
//  C. Batching vs prefetching in isolation vs combined (condensed view of
//     the Fig. 6 ranking at the largest thread count).
#include "bench_common.h"

#include "buffer/partitioned_pool.h"
#include "util/clock.h"
#include "workload/trace_generator.h"

#include <thread>

using namespace bpw;
using namespace bpw::bench;

namespace {

// Runs the partitioned pool with N worker threads on a workload; the
// regular Driver only handles BufferPool, so this is a condensed local
// driver for the ablation.
struct PartitionedResult {
  double tps = 0;
  double contentions_per_million = 0;
  double hit_ratio = 0;
};

PartitionedResult RunPartitioned(size_t partitions, uint32_t threads,
                                 const WorkloadSpec& workload,
                                 size_t num_frames, uint64_t duration_ms,
                                 uint64_t think_work) {
  StorageEngine storage(workload.num_pages, 4096);
  BufferPoolConfig config;
  config.num_frames = num_frames;
  config.page_size = 4096;
  SystemConfig system;
  system.policy = "2q";
  system.coordinator = "serialized";
  PartitionedPool pool(config, partitions, system, &storage);

  // Pre-warm.
  {
    auto session = pool.CreateSession();
    const uint64_t warm = std::min<uint64_t>(workload.num_pages, num_frames);
    for (PageId p = 0; p < warm; ++p) {
      auto handle = pool.FetchPage(*session, p);
      if (!handle.ok()) break;
    }
  }
  pool.ResetLockStats();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> transactions{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto session = pool.CreateSession();
      auto trace = CreateTrace(workload, t);
      uint64_t local_tx = 0;
      uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const PageAccess access = trace->Next();
        if (access.begins_transaction) ++local_tx;
        auto handle = pool.FetchPage(*session, access.page);
        if (handle.ok() && access.is_write) handle.value().MarkDirty();
        sink += SpinWork(think_work);
      }
      transactions.fetch_add(local_tx);
      const AccessStats stats = session->stats();
      hits.fetch_add(stats.hits);
      misses.fetch_add(stats.misses);
      volatile uint64_t consume = sink;  // keep SpinWork alive
      (void)consume;
    });
  }
  const uint64_t start = NowNanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  for (auto& w : workers) w.join();
  const double seconds = static_cast<double>(NowNanos() - start) / 1e9;

  PartitionedResult result;
  result.tps = static_cast<double>(transactions.load()) / seconds;
  const uint64_t accesses = hits.load() + misses.load();
  const LockStats lock = pool.lock_stats();
  result.contentions_per_million =
      accesses == 0 ? 0
                    : static_cast<double>(lock.contentions) * 1e6 /
                          static_cast<double>(accesses);
  result.hit_ratio =
      accesses == 0 ? 0 : static_cast<double>(hits.load()) / accesses;
  return result;
}

int RunBench() {
  const uint32_t threads = MaxThreads();
  const uint64_t cell_ms = CellMillis();

  // ---- A1: contention & throughput, zero-miss skewed OLTP -----------------
  {
    WorkloadSpec workload;
    workload.name = "dbt2";
    workload.num_pages = 8192;

    TableReporter table({"configuration", "tps", "contention/1M"});
    for (size_t partitions : {1, 4, 16, 64}) {
      PartitionedResult r = RunPartitioned(partitions, threads, workload,
                                           8192, cell_ms, 64);
      table.AddRow({"partitioned-2q/" + std::to_string(partitions),
                    FormatDouble(r.tps, 0),
                    FormatDouble(r.contentions_per_million, 1)});
    }
    // BP-Wrapper with ONE global policy for comparison.
    DriverConfig config = ScalabilityRunConfig("dbt2", 8192, cell_ms);
    config.num_threads = threads;
    config.think_work = 64;
    config.system = MustOk(PaperSystemConfig("pgBatPre"), "system");
    DriverResult bp = MustOk(RunDriver(config), "ablation A1");
    table.AddRow({"bp-wrapper (global 2q)", FormatDouble(bp.throughput_tps, 0),
                  FormatDouble(bp.contentions_per_million, 1)});
    table.Print("A1 — partitioned 2Q vs BP-Wrapper, DBT-2-like, zero-miss "
                "(partitioning needs many partitions to tame contention; "
                "BP-Wrapper does it with one global policy)");
  }

  // ---- A2: hit-ratio cost of localized history ----------------------------
  {
    WorkloadSpec workload;
    workload.name = "dbt1";
    workload.num_pages = 16384;
    const size_t frames = 2048;  // 1/8 of the data set: real misses

    TableReporter table({"configuration", "hit ratio %"});
    for (size_t partitions : {1, 16, 64, 256}) {
      PartitionedResult r = RunPartitioned(partitions, 4, workload, frames,
                                           cell_ms, 16);
      table.AddRow({"partitioned-2q/" + std::to_string(partitions),
                    FormatDouble(r.hit_ratio * 100, 2)});
    }
    table.Print("A2 — hit ratio vs partition count at fixed total buffer "
                "(paper §V-A drawback (3): small partitions hurt the "
                "replacement algorithm's history)");
  }

  // ---- B: the TryLock design point (simulated processors) -----------------
  {
    TableReporter table(
        {"commit protocol", "tps", "contention/1M", "tryfail/1M"});
    for (bool trylock_room : {true, false}) {
      DriverConfig config = ScalabilityRunConfig("dbt2", 8192, 100);
      config.warmup_ms = 20;
      config.num_threads = threads;
      config.system = MustOk(PaperSystemConfig("pgBat"), "system");
      config.system.queue_size = 64;
      config.system.batch_threshold = trylock_room ? 32 : 64;
      SimCosts costs;
      costs.access_work = 2500;  // below lock saturation: TryLock can win
      DriverResult r = MustOk(RunSimulation(config, costs), "ablation B");
      const double tryfail =
          r.accesses == 0 ? 0
                          : static_cast<double>(r.lock.trylock_failures) *
                                1e6 / static_cast<double>(r.accesses);
      table.AddRow({trylock_room ? "threshold 32 (TryLock window)"
                                 : "threshold 64 (always blocking)",
                    FormatDouble(r.throughput_tps, 0),
                    FormatDouble(r.contentions_per_million, 1),
                    FormatDouble(tryfail, 1)});
    }
    table.Print("B — value of the non-blocking TryLock window "
                "(threshold == queue size forces blocking commits)");
  }

  // ---- C: technique mix at max processors (simulated) ---------------------
  {
    TableReporter table({"system", "tps", "contention/1M"});
    for (const auto& name : PaperSystemNames()) {
      DriverConfig config = ScalabilityRunConfig("dbt2", 8192, 100);
      config.warmup_ms = 20;
      config.num_threads = threads;
      config.system = MustOk(PaperSystemConfig(name), "system");
      SimCosts costs;
      costs.access_work = 3500;
      DriverResult r = MustOk(RunSimulation(config, costs), "ablation C");
      table.AddRow({name, FormatDouble(r.throughput_tps, 0),
                    FormatDouble(r.contentions_per_million, 1)});
    }
    table.Print("C — batching vs prefetching in isolation (condensed Fig. 6 "
                "ranking at the largest thread count)");
  }
  return 0;
}

}  // namespace

BPW_BENCH_MAIN("ablation",
               "Ablation — distributed locks, TryLock protocol, technique mix",
               "quantifies the paper's §V-A criticism of partitioned buffers "
               "and the §IV-E TryLock design point",
               RunBench)
