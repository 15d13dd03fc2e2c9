// bpw_bench: the deterministic-counter benchmark gate.
//
// Runs each case of a declarative suite (src/bench/suite.cc) once and
// writes schema-versioned JSON with an environment fingerprint and the
// case's exactly-reproducible work counters. Pair with bench_compare to
// judge a candidate against bench/baselines/.
//
// Examples:
//   bpw_bench --list
//   bpw_bench --suite smoke --out BENCH_smoke.json
//   bpw_bench --suite paper --out BENCH_paper.json
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/runner.h"
#include "bench/suite.h"
#include "obs/prof_site.h"

namespace {

using namespace bpw;
using namespace bpw::bench;

void Usage() {
  std::printf(
      "bpw_bench — run a benchmark suite and emit BENCH_<suite>.json\n\n"
      "  --suite NAME    suite to run (see --list)\n"
      "  --out FILE      write the JSON document here (default:\n"
      "                  BENCH_<suite>.json in the current directory)\n"
      "  --stdout        print the JSON to stdout instead of a file\n"
      "  --quiet         suppress per-case progress on stderr\n"
      "  --prof          enable the contention profiler for every case\n"
      "                  (CI compares this against a --prof-less run:\n"
      "                  profiling must change no counter)\n"
      "  --list          list known suites and exit\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite_name;
  std::string out_path;
  RunnerOptions options;
  options.verbose = true;
  bool to_stdout = false;
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--suite") {
      suite_name = next("--suite");
    } else if (arg == "--out") {
      out_path = next("--out");
    } else if (arg == "--stdout") {
      to_stdout = true;
    } else if (arg == "--quiet") {
      options.verbose = false;
    } else if (arg == "--prof") {
      // Work counters stay bit-identical with or without this: profiling
      // only adds clock reads and sharded accumulation, never changes what
      // the workload does. CI's prof-overhead job relies on exactly that.
      obs::SetProfilerEnabled(true);
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return 2;
    }
  }

  if (list) {
    for (const std::string& name : KnownSuiteNames()) {
      const BenchSuite* suite = FindSuite(name);
      std::printf("%-10s %zu cases — %s\n", name.c_str(),
                  suite->cases.size(), suite->description.c_str());
    }
    return 0;
  }
  if (suite_name.empty()) {
    std::fprintf(stderr, "need --suite NAME (try --list)\n");
    return 2;
  }
  const BenchSuite* suite = FindSuite(suite_name);
  if (suite == nullptr) {
    std::fprintf(stderr, "unknown suite '%s' (try --list)\n",
                 suite_name.c_str());
    return 2;
  }

  auto result = RunSuite(*suite, options);
  if (!result.ok()) {
    std::fprintf(stderr, "suite failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const std::string json = SuiteResultToJson(result.value());

  if (to_stdout) {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return 0;
  }
  if (out_path.empty()) out_path = "BENCH_" + suite_name + ".json";
  Status s = WriteStringToFile(json, out_path);
  if (!s.ok()) {
    std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[bpw_bench] wrote %s (%zu cases)\n", out_path.c_str(),
               result.value().cases.size());
  return 0;
}
