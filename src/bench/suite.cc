#include "bench/suite.h"

#include <deque>

#include "core/coordinator_factory.h"
#include "sync/mutex.h"

namespace bpw {
namespace bench {

namespace {

SystemConfig MustSystem(const char* name) {
  auto system = PaperSystemConfig(name);
  // Built-in suites only reference the named paper systems; a failure here is a programming error, surfaced as a default config
  // rather than UB.
  return system.ok() ? std::move(system).value() : SystemConfig{};
}

/// Host, duration-based: wall-clock samples, bootstrap-judged.
BenchCase HostWall(const std::string& name, const char* workload,
                   uint64_t pages, const char* system, uint32_t threads,
                   uint64_t duration_ms) {
  BenchCase c;
  c.name = name;
  c.mode = ExecMode::kHost;
  c.config.workload.name = workload;
  c.config.workload.num_pages = pages;
  c.config.num_threads = threads;
  c.config.duration_ms = duration_ms;
  c.config.warmup_ms = duration_ms / 4;
  c.config.num_frames = 0;  // zero-miss: measure coordination, not I/O
  c.config.prewarm = true;
  c.config.think_work = 32;
  c.config.system = MustSystem(system);
  return c;
}

/// Simulator, count-based: every number deterministic, counters gated.
BenchCase SimDet(const std::string& name, const char* workload,
                 uint64_t pages, const char* system, uint32_t procs,
                 uint64_t tx_per_proc, uint64_t access_work) {
  BenchCase c;
  c.name = name;
  c.mode = ExecMode::kSim;
  c.deterministic = true;
  c.config.workload.name = workload;
  c.config.workload.num_pages = pages;
  c.config.num_threads = procs;
  c.config.transactions_per_thread = tx_per_proc;
  c.config.num_frames = 0;
  c.config.prewarm = true;
  c.config.system = MustSystem(system);
  c.sim_costs.access_work = access_work;
  return c;
}

/// Host, count-based, single worker: real code paths (pool, coordinator,
/// metrics registry) with a fully deterministic schedule.
BenchCase HostDet(const std::string& name, const char* workload,
                  uint64_t pages, const char* system, uint64_t transactions,
                  size_t frames) {
  BenchCase c;
  c.name = name;
  c.mode = ExecMode::kHost;
  c.deterministic = true;
  c.config.workload.name = workload;
  c.config.workload.num_pages = pages;
  c.config.num_threads = 1;
  c.config.transactions_per_thread = transactions;
  c.config.num_frames = frames;
  c.config.prewarm = true;
  c.config.think_work = 0;
  c.config.system = MustSystem(system);
  return c;
}

std::deque<BenchSuite> BuildBuiltinSuites() {
  std::deque<BenchSuite> suites;

  {
    // Fast enough for a ctest smoke run and for per-PR CI, yet covering
    // every signal class: host wall-clock under contention, host
    // deterministic counters (real pool with evictions), and simulated
    // multi-processor contention counters for both a serialized and a
    // BP-Wrapper system.
    BenchSuite smoke;
    smoke.name = "smoke";
    smoke.description =
        "fast wall-clock + deterministic-counter coverage for CI";
    smoke.trials = 5;
    smoke.warmup_trials = 1;
    smoke.cases = {
        HostWall("wall.host.dbt2.pgBatPre.t4", "dbt2", 4096, "pgBatPre", 4,
                 /*duration_ms=*/80),
        HostWall("wall.host.dbt2.pg2Q.t4", "dbt2", 4096, "pg2Q", 4,
                 /*duration_ms=*/80),
        HostDet("det.host.dbt2.pgBatPre.t1", "dbt2", 2048, "pgBatPre",
                /*transactions=*/2000, /*frames=*/1024),
        HostDet("det.host.tablescan.pg2Q.t1", "tablescan", 1024, "pg2Q",
                /*transactions=*/1500, /*frames=*/512),
        SimDet("det.sim.dbt2.pgBatPre.p8", "dbt2", 4096, "pgBatPre", 8,
               /*tx_per_proc=*/400, /*access_work=*/3500),
        SimDet("det.sim.dbt2.pg2Q.p8", "dbt2", 4096, "pg2Q", 8,
               /*tx_per_proc=*/400, /*access_work=*/3500),
        SimDet("det.sim.tablescan.pgBatPre.p4", "tablescan", 1024,
               "pgBatPre", 4, /*tx_per_proc=*/300, /*access_work=*/1500),
    };
    suites.push_back(std::move(smoke));
  }

  {
    // The paper-figure trajectory: the five systems on the simulator at the
    // Fig. 6 endpoints plus host wall anchors. Slower; run when touching
    // the coordination paths, not on every CI push.
    BenchSuite paper;
    paper.name = "paper";
    paper.description =
        "five-system matrix at Fig. 6/7 operating points (sim det + host wall)";
    paper.trials = 5;
    paper.warmup_trials = 1;
    for (const std::string& system : PaperSystemNames()) {
      for (uint32_t procs : {1u, 4u, 16u}) {
        paper.cases.push_back(
            SimDet("det.sim.dbt2." + system + ".p" + std::to_string(procs),
                   "dbt2", 8192, system.c_str(), procs,
                   /*tx_per_proc=*/400, /*access_work=*/3500));
      }
      paper.cases.push_back(
          SimDet("det.sim.tablescan." + system + ".p8", "tablescan", 2048,
                 system.c_str(), 8, /*tx_per_proc=*/300,
                 /*access_work=*/1500));
    }
    paper.cases.push_back(HostWall("wall.host.dbt2.pgBatPre.t8", "dbt2",
                                   8192, "pgBatPre", 8,
                                   /*duration_ms=*/150));
    paper.cases.push_back(HostWall("wall.host.dbt2.pg2Q.t8", "dbt2", 8192,
                                   "pg2Q", 8, /*duration_ms=*/150));
    suites.push_back(std::move(paper));
  }

  {
    // The Fig. 6 high-processor endpoint of the paper's best system,
    // pgBatPre. Everything is simulator-deterministic, so bench_compare
    // gates the lock-acquisition/contention counters exactly.
    BenchSuite fig6;
    fig6.name = "fig6";
    fig6.description =
        "Fig. 6 endpoint: pgBatPre lock counters at p4/p16";
    fig6.trials = 1;  // all cases deterministic; trials buy nothing
    fig6.warmup_trials = 0;
    for (uint32_t procs : {4u, 16u}) {
      fig6.cases.push_back(SimDet(
          "det.sim.dbt2.pgBatPre.p" + std::to_string(procs), "dbt2", 8192,
          "pgBatPre", procs, /*tx_per_proc=*/400, /*access_work=*/3500));
    }
    fig6.cases.push_back(SimDet("det.sim.tablescan.pgBatPre.p16", "tablescan",
                                2048, "pgBatPre", 16,
                                /*tx_per_proc=*/300, /*access_work=*/1500));
    suites.push_back(std::move(fig6));
  }

  {
    // pgBatPre's scaling past the paper's largest machine: the Fig. 6
    // p16 operating point, then p64/p128 under the NUMA cost mode (2
    // nodes), where cross-node coherence transfers punish every shared-line
    // touch. All deterministic; bench_compare gates the lock counters
    // exactly.
    BenchSuite fig8;
    fig8.name = "fig8";
    fig8.description = "pgBatPre scaling at p16 and NUMA p64/p128";
    fig8.trials = 1;
    fig8.warmup_trials = 0;
    fig8.cases.push_back(SimDet("det.sim.dbt2.pgBatPre.p16", "dbt2", 8192,
                                "pgBatPre", 16,
                                /*tx_per_proc=*/400, /*access_work=*/3500));
    for (uint32_t procs : {64u, 128u}) {
      BenchCase numa = SimDet(
          "det.sim.dbt2.pgBatPre.p" + std::to_string(procs) + ".numa2",
          "dbt2", 8192, "pgBatPre", procs,
          /*tx_per_proc=*/200, /*access_work=*/3500);
      numa.sim_costs.numa_nodes = 2;
      fig8.cases.push_back(std::move(numa));
    }
    suites.push_back(std::move(fig8));
  }

  {
    // Lock-path microscope: tiny non-critical work so the ContentionLock
    // is the whole story, across the two coordination designs
    // (serialized, batched TryLock). Deterministic.
    BenchSuite micro_lock;
    micro_lock.name = "micro_lock";
    micro_lock.description =
        "lock-path duel at near-zero think time: pg2Q vs pgBatPre";
    micro_lock.trials = 1;
    micro_lock.warmup_trials = 0;
    for (const char* system : {"pg2Q", "pgBatPre"}) {
      micro_lock.cases.push_back(
          SimDet(std::string("det.sim.tablescan.") + system + ".p16.hot",
                 "tablescan", 1024, system, 16,
                 /*tx_per_proc=*/300, /*access_work=*/500));
    }
    suites.push_back(std::move(micro_lock));
  }

  return suites;
}

Mutex g_suites_mu;

// A deque so RegisterSuite growth never invalidates pointers FindSuite
// handed out.
std::deque<BenchSuite>& Suites() {
  static std::deque<BenchSuite>* suites =
      new std::deque<BenchSuite>(BuildBuiltinSuites());
  return *suites;
}

}  // namespace

const BenchSuite* FindSuite(const std::string& name) {
  MutexGuard lock(g_suites_mu);
  for (const BenchSuite& suite : Suites()) {
    if (suite.name == name) return &suite;
  }
  return nullptr;
}

std::vector<std::string> KnownSuiteNames() {
  MutexGuard lock(g_suites_mu);
  std::vector<std::string> names;
  names.reserve(Suites().size());
  for (const BenchSuite& suite : Suites()) names.push_back(suite.name);
  return names;
}

void RegisterSuite(BenchSuite suite) {
  MutexGuard lock(g_suites_mu);
  for (BenchSuite& existing : Suites()) {
    if (existing.name == suite.name) {
      existing = std::move(suite);
      return;
    }
  }
  Suites().push_back(std::move(suite));
}

}  // namespace bench
}  // namespace bpw
