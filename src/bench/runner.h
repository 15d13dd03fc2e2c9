// Suite runner: executes each case of a BenchSuite once and renders the
// result as schema-versioned JSON ("bpw-bench/1") with an environment
// fingerprint, the run's sample (a one-element "trials" array), and the
// deterministic counter block bench_compare gates on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/env_fingerprint.h"
#include "bench/suite.h"
#include "util/status.h"

namespace bpw {
namespace bench {

/// Bumped on any incompatible change to the JSON layout; bench_compare
/// refuses to compare documents of different versions.
inline constexpr int kBenchSchemaVersion = 1;
inline constexpr const char* kBenchSchemaName = "bpw-bench/1";

struct RunnerOptions {
  bool verbose = false;  ///< per-case progress on stderr
};

/// The numbers of a case's one run: reproducible on the sim, informational
/// on the host. Only the counters are gated.
struct TrialSample {
  double throughput_tps = 0;
  double accesses_per_sec = 0;
  double avg_response_us = 0;
  double p95_response_us = 0;
  double contentions_per_million = 0;
  double hit_ratio = 0;
  double measure_seconds = 0;
};

struct CaseResult {
  std::string name;
  ExecMode mode = ExecMode::kHost;
  /// Fingerprint of the case's access streams (workload drift detector).
  uint64_t workload_fingerprint = 0;
  WorkloadSpec workload;
  uint32_t threads = 0;
  SystemConfig system;
  TrialSample sample;
  /// Exactly-reproducible work counters, keyed by the obs metric
  /// vocabulary. Values are integral.
  std::map<std::string, uint64_t> counters;
};

struct SuiteRunResult {
  std::string suite;
  std::string description;
  EnvFingerprint env;
  std::vector<CaseResult> cases;
};

/// Runs every case of `suite`. Fails on the first case error (a bench
/// matrix with holes is not a baseline).
StatusOr<SuiteRunResult> RunSuite(const BenchSuite& suite,
                                  const RunnerOptions& options);

/// The schema-versioned JSON document (one object, newline-terminated).
std::string SuiteResultToJson(const SuiteRunResult& result);

/// Writes `content` to `path` atomically enough for our purposes
/// (truncate + write + close, error-checked).
Status WriteStringToFile(const std::string& content, const std::string& path);

/// Number of accesses per thread folded into workload fingerprints. Fixed:
/// changing it invalidates every recorded fingerprint.
inline constexpr uint64_t kFingerprintAccessesPerThread = 4096;

}  // namespace bench
}  // namespace bpw
