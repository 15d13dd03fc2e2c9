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

/// Simulator, count-based: every number deterministic, counters gated.
BenchCase SimDet(const std::string& name, const char* workload,
                 uint64_t pages, const char* system, uint32_t procs,
                 uint64_t tx_per_proc, uint64_t access_work) {
  BenchCase c;
  c.name = name;
  c.mode = ExecMode::kSim;
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
    // both signal classes: host counters (real pool with evictions) and
    // simulated multi-processor contention counters for both a serialized
    // and a BP-Wrapper system.
    BenchSuite smoke;
    smoke.name = "smoke";
    smoke.description = "fast deterministic-counter coverage for CI";
    smoke.cases = {
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
    // The paper-figure trajectory, the one simulator counter gate (tier-1
    // ctest bench_paper_baseline): the five systems at the Fig. 6/7
    // operating points; pgBatPre's Fig. 6 tablescan endpoint at p16 and its
    // scaling past the paper's largest machine, p64/p128 under the NUMA
    // cost mode (2 nodes), where cross-node transfers punish every
    // shared-line touch; and the lock-path duel at near-zero think time
    // (pg2Q vs pgBatPre), where the ContentionLock is the whole story.
    BenchSuite paper;
    paper.name = "paper";
    paper.description = "five-system matrix at Fig. 6/7 operating points";
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
    paper.cases.push_back(SimDet("det.sim.tablescan.pgBatPre.p16",
                                 "tablescan", 2048, "pgBatPre", 16,
                                 /*tx_per_proc=*/300, /*access_work=*/1500));
    for (uint32_t procs : {64u, 128u}) {
      BenchCase numa = SimDet(
          "det.sim.dbt2.pgBatPre.p" + std::to_string(procs) + ".numa2",
          "dbt2", 8192, "pgBatPre", procs,
          /*tx_per_proc=*/200, /*access_work=*/3500);
      numa.sim_costs.numa_nodes = 2;
      paper.cases.push_back(std::move(numa));
    }
    for (const char* system : {"pg2Q", "pgBatPre"}) {
      paper.cases.push_back(
          SimDet(std::string("det.sim.tablescan.") + system + ".p16.hot",
                 "tablescan", 1024, system, 16,
                 /*tx_per_proc=*/300, /*access_work=*/500));
    }
    suites.push_back(std::move(paper));
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
