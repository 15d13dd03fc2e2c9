// bench_compare: the deterministic-counter regression gate.
//
// Judges a candidate BENCH_*.json against a baseline: deterministic work
// counters and workload fingerprints must be exactly equal. Any drift
// exits 1 — these signals cannot be blamed on a noisy runner.
//
// Exit codes: 0 pass, 1 counter or fingerprint drift, 2 usage or parse
// error.
//
// Example:
//   bench_compare bench/baselines/BENCH_smoke.json BENCH_smoke.json
#include <cstdio>
#include <string>

#include "bench/compare.h"
#include "bench/json_reader.h"

namespace {

using namespace bpw;
using namespace bpw::bench;

void Usage() {
  std::printf(
      "bench_compare — judge candidate vs baseline bench JSON\n\n"
      "  bench_compare BASELINE.json CANDIDATE.json\n\n"
      "Exits 1 if any deterministic counter or workload fingerprint\n"
      "drifted, or a deterministic baseline case is missing.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string candidate_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return 2;
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (candidate_path.empty()) {
      candidate_path = arg;
    } else {
      std::fprintf(stderr, "too many positional arguments\n");
      return 2;
    }
  }
  if (baseline_path.empty() || candidate_path.empty()) {
    Usage();
    return 2;
  }

  auto baseline = ParseJsonFile(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "baseline: %s\n",
                 baseline.status().ToString().c_str());
    return 2;
  }
  auto candidate = ParseJsonFile(candidate_path);
  if (!candidate.ok()) {
    std::fprintf(stderr, "candidate: %s\n",
                 candidate.status().ToString().c_str());
    return 2;
  }

  auto report = CompareBenchResults(baseline.value(), candidate.value());
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 2;
  }
  const std::string text = RenderCompareReport(report.value());
  std::fwrite(text.data(), 1, text.size(), stdout);
  return report.value().ShouldFail() ? 1 : 0;
}
