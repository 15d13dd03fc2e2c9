// bench_compare: variance-aware perf-regression gate.
//
// Judges a candidate BENCH_*.json against a baseline:
//  - deterministic work counters and workload fingerprints: exact
//    equality. Any drift exits 1 — these signals cannot be blamed on a
//    noisy runner.
//  - wall-clock metrics: bootstrap confidence interval on the difference
//    of trial means; regressions are report-only unless --gate-wall.
//
// Exit codes: 0 pass, 1 gated drift/regression, 2 usage or parse error.
//
// Examples:
//   bench_compare bench/baselines/BENCH_smoke.json BENCH_smoke.json
//   bench_compare base.json cand.json --gate-wall --min-rel-delta 0.08
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "bench/compare.h"
#include "bench/json_reader.h"
#include "util/flag_parse.h"

namespace {

using namespace bpw;
using namespace bpw::bench;

void Usage() {
  std::printf(
      "bench_compare — judge candidate vs baseline bench JSON\n\n"
      "  bench_compare BASELINE.json CANDIDATE.json [flags]\n\n"
      "  --gate-wall           fail (exit 1) on wall-clock regressions too;\n"
      "                        default gates only deterministic counters\n"
      "  --confidence P        bootstrap CI confidence (default 0.95)\n"
      "  --resamples N         bootstrap resamples (default 4000)\n"
      "  --min-rel-delta F     min |relative delta| to flag (default 0.05)\n"
      "  --seed N              bootstrap RNG seed (default fixed)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string candidate_path;
  CompareOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // A malformed number would change the gate's statistics: exit 2
    // naming the flag instead.
    auto number = [](const auto& parsed) {
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        std::exit(2);
      }
      return *parsed;
    };
    if (arg == "--gate-wall") {
      options.gate_wall = true;
    } else if (arg == "--confidence") {
      options.confidence =
          number(ParseDoubleFlag("--confidence", next("--confidence")));
    } else if (arg == "--resamples") {
      options.resamples = static_cast<int>(
          number(ParseUintFlag("--resamples", next("--resamples"),
                               std::numeric_limits<int>::max())));
    } else if (arg == "--min-rel-delta") {
      options.min_rel_delta =
          number(ParseDoubleFlag("--min-rel-delta", next("--min-rel-delta")));
    } else if (arg == "--seed") {
      options.bootstrap_seed = number(ParseUintFlag("--seed", next("--seed")));
    } else if (arg == "--help" || arg == "-h") {
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

  auto report = CompareBenchResults(baseline.value(), candidate.value(),
                                    options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 2;
  }
  const std::string text = RenderCompareReport(report.value(), options);
  std::fwrite(text.data(), 1, text.size(), stdout);
  return report.value().ShouldFail(options) ? 1 : 0;
}
