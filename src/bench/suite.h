// Declarative benchmark suites for the bpw_bench counter gate.
//
// A suite is a named list of fully-specified cases; the runner executes
// each case once and writes schema-versioned JSON. Every case is
// count-based and deterministic: single-threaded on the host, or any
// processor count on the discrete-event simulator (which is single-threaded
// and deterministic by construction). Their work counters (lock
// acquisitions, blocking-Lock fallbacks, batch-commit totals,
// hits/misses/evictions) are exactly reproducible, so bench_compare gates
// them with exact equality: the CI signal that cannot be blamed on a busy
// runner. Host wall-clock speed is perfbench's job, not this gate's.
#pragma once

#include <string>
#include <vector>

#include "harness/driver.h"
#include "sim/sim_driver.h"

namespace bpw {
namespace bench {

enum class ExecMode { kHost, kSim };

struct BenchCase {
  std::string name;
  ExecMode mode = ExecMode::kHost;
  DriverConfig config;
  SimCosts sim_costs;  // kSim only
};

struct BenchSuite {
  std::string name;
  std::string description;
  std::vector<BenchCase> cases;
};

/// Finds a built-in or registered suite; nullptr when unknown.
const BenchSuite* FindSuite(const std::string& name);

/// Names of every known suite, built-ins first.
std::vector<std::string> KnownSuiteNames();

/// Registers (or replaces, by name) a suite — tests and downstream tools
/// can add their own matrices next to the built-ins.
void RegisterSuite(BenchSuite suite);

}  // namespace bench
}  // namespace bpw
