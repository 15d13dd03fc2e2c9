// bpw_run: command-line experiment runner.
//
// Runs one (workload x system x concurrency) experiment on the host driver
// or the multiprocessor simulator and prints every metric the library
// collects. Intended for interactive exploration beyond the canned paper
// benches.
//
// Examples:
//   bpw_run --system=pgBatPre --workload=dbt2 --threads=8
//   bpw_run --policy=lirs --coordinator=bp-wrapper --queue=64 --threshold=32
//   bpw_run --simulate --threads=16 --workload=tablescan --pages=2048
//   bpw_run --workload=dbt1 --frames=1024 --io-us=250 --duration-ms=500
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "harness/driver.h"
#include "obs/json.h"
#include "obs/profile_export.h"
#include "obs/trace_recorder.h"
#include "policy/policy_factory.h"
#include "harness/systems.h"
#include "sim/sim_driver.h"
#include "util/flag_parse.h"

namespace {

using namespace bpw;

struct Args {
  std::string system;  // paper system name; overrides policy/coordinator
  std::string policy = "2q";
  std::string coordinator = "bp-wrapper";
  std::string workload = "dbt2";
  uint64_t pages = 8192;
  uint32_t threads = 4;
  size_t frames = 0;  // 0 = footprint
  size_t queue = 64;
  size_t threshold = 32;
  bool prefetch = false;
  bool simulate = false;
  uint64_t duration_ms = 400;
  uint64_t warmup_ms = 100;
  uint64_t io_us = 0;
  uint64_t think = 64;
  uint64_t seed = 42;
  bool no_prewarm = false;
  bool json = false;
  std::string trace_out;
  uint64_t metrics_interval_ms = 0;
  bool contention_report = false;
  std::string contention_report_out;  // empty = stdout table / inline JSON
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

/// A malformed number is a usage error: it exits 2 naming the flag.
bool ParseFlag(const char* arg, const char* name, uint64_t* out,
               uint64_t max = std::numeric_limits<uint64_t>::max()) {
  std::string value;
  if (!ParseFlag(arg, name, &value)) return false;
  auto parsed = ParseUintFlag(name, value, max);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    std::exit(2);
  }
  *out = *parsed;
  return true;
}

void Usage() {
  std::printf(
      "bpw_run — run one buffer-management experiment\n\n"
      "  --system=NAME        paper system (pgClock|pg2Q|pgPre|pgBat|\n"
      "                       pgBatPre)\n"
      "  --policy=NAME        replacement policy (default 2q); see below\n"
      "  --coordinator=KIND   serialized | bp-wrapper | clock-lockfree\n"
      "  --prefetch           enable the paper's prefetch technique\n"
      "  --queue=N            BP-Wrapper queue size (default 64)\n"
      "  --threshold=N        BP-Wrapper batch threshold (default 32)\n"

      "  --workload=NAME      dbt1 | dbt2 | tablescan | zipfian | uniform |\n"
      "                       seqloop (default dbt2)\n"
      "  --pages=N            workload footprint in pages (default 8192)\n"
      "  --threads=N          worker threads / simulated processors\n"
      "  --frames=N           buffer frames (default: footprint => no misses)\n"
      "  --io-us=N            per-I/O latency in microseconds (default 0)\n"
      "  --think=N            non-critical work per access (host: SpinWork\n"
      "                       iters; sim: ~16ns each)\n"
      "  --duration-ms=N      measurement window (default 400)\n"
      "  --warmup-ms=N        warm-up window (default 100)\n"
      "  --seed=N             workload seed (default 42)\n"
      "  --no-prewarm         skip the sequential pre-warm\n"
      "  --simulate           run on the multiprocessor simulator\n"
      "  --json               print the result as one JSON document\n"
      "  --trace-out=FILE     record lock/commit/eviction events and write\n"
      "                       a Chrome trace (chrome://tracing, Perfetto)\n"
      "  --metrics-interval-ms=N  sample all metrics every N ms; the series\n"
      "                       is included in the --json output\n"
      "  --contention-report[=FILE]  profile per-site lock wait/hold and\n"
      "                       commit phases over the measurement window\n"
      "                       (forces timing instrumentation). Prints a\n"
      "                       table, or writes the report JSON to FILE;\n"
      "                       with --json the report is embedded under\n"
      "                       \"contention\". Feed the JSON to bpw_profile\n"
      "                       for folded flamegraph stacks.\n");
  std::printf("\npolicies: ");
  for (const auto& name : KnownPolicies()) std::printf("%s ", name.c_str());
  std::printf("\n");
}

/// The --json document: config echo, every scalar the run measured, the
/// metrics-registry delta over the measurement window, and the sampler
/// series (when --metrics-interval-ms was given).
std::string ResultJson(const Args& args, const DriverConfig& config,
                       const DriverResult& r) {
  using obs::JsonNumber;
  using obs::JsonString;
  std::string out = "{";

  out += "\"config\":{";
  out += "\"mode\":" + JsonString(args.simulate ? "simulated" : "host");
  if (!args.system.empty()) out += ",\"system\":" + JsonString(args.system);
  out += ",\"policy\":" + JsonString(config.system.policy);
  out += ",\"coordinator\":" + JsonString(config.system.coordinator);
  out += ",\"prefetch\":" + std::string(config.system.prefetch ? "true"
                                                               : "false");
  out += ",\"workload\":" + JsonString(config.workload.name);
  out += ",\"pages\":" + JsonNumber(static_cast<double>(args.pages));
  out += ",\"threads\":" + JsonNumber(args.threads);
  out += ",\"frames\":" + JsonNumber(static_cast<double>(config.num_frames));
  out += ",\"queue\":" + JsonNumber(static_cast<double>(
                             config.system.queue_size));
  out += ",\"threshold\":" + JsonNumber(static_cast<double>(
                                 config.system.batch_threshold));
  out += ",\"seed\":" + JsonNumber(static_cast<double>(args.seed));
  out += "},";

  out += "\"result\":{";
  out += "\"measure_seconds\":" + JsonNumber(r.measure_seconds);
  out += ",\"transactions\":" + JsonNumber(static_cast<double>(r.transactions));
  out += ",\"throughput_tps\":" + JsonNumber(r.throughput_tps);
  out += ",\"accesses\":" + JsonNumber(static_cast<double>(r.accesses));
  out += ",\"accesses_per_sec\":" + JsonNumber(r.accesses_per_sec);
  out += ",\"hits\":" + JsonNumber(static_cast<double>(r.hits));
  out += ",\"misses\":" + JsonNumber(static_cast<double>(r.misses));
  out += ",\"hit_ratio\":" + JsonNumber(r.hit_ratio);
  out += ",\"avg_response_us\":" + JsonNumber(r.avg_response_us);
  out += ",\"p95_response_us\":" + JsonNumber(r.p95_response_us);
  out += ",\"evictions\":" + JsonNumber(static_cast<double>(r.evictions));
  out += ",\"writebacks\":" + JsonNumber(static_cast<double>(r.writebacks));
  out += ",\"contentions_per_million\":" + JsonNumber(r.contentions_per_million);
  out += ",\"lock_nanos_per_access\":" + JsonNumber(r.lock_nanos_per_access);
  out += ",\"lock\":{";
  out += "\"acquisitions\":" + JsonNumber(static_cast<double>(
                                   r.lock.acquisitions));
  out += ",\"contentions\":" + JsonNumber(static_cast<double>(
                                   r.lock.contentions));
  out += ",\"trylock_failures\":" + JsonNumber(static_cast<double>(
                                        r.lock.trylock_failures));
  out += ",\"hold_nanos\":" + JsonNumber(static_cast<double>(
                                  r.lock.hold_nanos));
  out += ",\"wait_nanos\":" + JsonNumber(static_cast<double>(
                                  r.lock.wait_nanos));
  out += "}},";

  // Registry delta over the measurement window (lock/commit/buffer/storage).
  out += "\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : r.metrics.values) {
    if (!first) out += ',';
    first = false;
    out += JsonString(name) + ":" + JsonNumber(value);
  }
  out += "},";

  out += "\"samples\":[";
  for (size_t i = 0; i < r.metrics_samples.size(); ++i) {
    if (i > 0) out += ',';
    out += r.metrics_samples[i].ToJson();
  }
  out += "],";

  // Observability health: how trustworthy the trace / sampler series are.
  // A nonzero dropped or skipped count means the corresponding output
  // under-represents the run.
  const obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  out += "\"obs\":{";
  out += "\"trace_total_events\":" +
         JsonNumber(static_cast<double>(recorder.total_events()));
  out += ",\"trace_dropped_events\":" +
         JsonNumber(static_cast<double>(recorder.dropped_events()));
  out += ",\"sampler_overruns\":" +
         JsonNumber(static_cast<double>(r.sampler_overruns));
  out += ",\"sampler_skipped_ticks\":" +
         JsonNumber(static_cast<double>(r.sampler_skipped_ticks));
  out += "}";

  if (args.contention_report) {
    out += ",\"contention\":" + obs::ProfSnapshotToJson(r.contention);
  }
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t u64 = 0;
    if (ParseFlag(arg, "--system", &args.system) ||
        ParseFlag(arg, "--policy", &args.policy) ||
        ParseFlag(arg, "--coordinator", &args.coordinator) ||
        ParseFlag(arg, "--workload", &args.workload)) {
      continue;
    }
    if (ParseFlag(arg, "--pages", &args.pages) ||
        ParseFlag(arg, "--duration-ms", &args.duration_ms) ||
        ParseFlag(arg, "--warmup-ms", &args.warmup_ms) ||
        ParseFlag(arg, "--io-us", &args.io_us) ||
        ParseFlag(arg, "--think", &args.think) ||
        ParseFlag(arg, "--seed", &args.seed) ||
        ParseFlag(arg, "--metrics-interval-ms", &args.metrics_interval_ms) ||
        ParseFlag(arg, "--trace-out", &args.trace_out)) {
      continue;
    }
    if (ParseFlag(arg, "--threads", &u64,
                  std::numeric_limits<uint32_t>::max())) {
      args.threads = static_cast<uint32_t>(u64);
      continue;
    }
    if (ParseFlag(arg, "--frames", &u64)) {
      args.frames = u64;
      continue;
    }
    if (ParseFlag(arg, "--queue", &u64)) {
      args.queue = u64;
      continue;
    }
    if (ParseFlag(arg, "--threshold", &u64)) {
      args.threshold = u64;
      continue;
    }
    if (std::strcmp(arg, "--prefetch") == 0) {
      args.prefetch = true;
      continue;
    }
    if (std::strcmp(arg, "--simulate") == 0) {
      args.simulate = true;
      continue;
    }
    if (std::strcmp(arg, "--no-prewarm") == 0) {
      args.no_prewarm = true;
      continue;
    }
    if (std::strcmp(arg, "--json") == 0) {
      args.json = true;
      continue;
    }
    if (std::strcmp(arg, "--contention-report") == 0 ||
        ParseFlag(arg, "--contention-report", &args.contention_report_out)) {
      args.contention_report = true;
      continue;
    }
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      Usage();
      return 0;
    }
    std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg);
    return 2;
  }

  DriverConfig config;
  config.workload.name = args.workload;
  config.workload.num_pages = args.pages;
  config.workload.seed = args.seed;
  config.num_threads = args.threads;
  config.duration_ms = args.duration_ms;
  config.warmup_ms = args.warmup_ms;
  config.num_frames = args.frames;
  config.prewarm = !args.no_prewarm;
  config.think_work = args.think;
  if (!args.system.empty()) {
    auto system = PaperSystemConfig(args.system);
    if (!system.ok()) {
      std::fprintf(stderr, "%s\n", system.status().ToString().c_str());
      return 2;
    }
    config.system = system.value();
  } else {
    config.system.policy = args.policy;
    config.system.coordinator = args.coordinator;
    config.system.prefetch = args.prefetch;
  }
  config.system.queue_size = args.queue;
  config.system.batch_threshold = args.threshold;
  config.metrics_interval_ms = args.metrics_interval_ms;
  if (args.contention_report) {
    if (args.simulate) {
      std::fprintf(stderr,
                   "--contention-report profiles host locks and is not "
                   "meaningful under --simulate\n");
      return 2;
    }
    config.profile_contention = true;
    // The profiler's wait/hold totals share kTiming's clock reads; forcing
    // timing keeps the per-site report and the aggregate LockStats
    // measuring the same acquisitions the same way.
    config.system.instrumentation = LockInstrumentation::kTiming;
  }

  if (!args.trace_out.empty()) {
    obs::TraceRecorder::Default().SetEnabled(true);
  }

  StatusOr<DriverResult> result = Status::Internal("not run");
  if (args.simulate) {
    SimCosts costs;
    costs.access_work = args.think * 16;  // rough host<->sim equivalence
    costs.io_read = args.io_us * 1000;
    costs.io_write = args.io_us * 1000;
    result = RunSimulation(config, costs);
  } else {
    config.storage_latency =
        StorageLatencyModel::SleepingMicros(args.io_us, args.io_us);
    result = RunDriver(config);
  }
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const DriverResult& r = result.value();

  if (!args.trace_out.empty()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
    recorder.SetEnabled(false);
    if (!recorder.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "trace: %llu events -> %s (open in chrome://tracing)\n",
                 static_cast<unsigned long long>(recorder.total_events()),
                 args.trace_out.c_str());
  }

  if (args.contention_report && !args.contention_report_out.empty()) {
    if (!obs::WriteTextFile(args.contention_report_out,
                            obs::ProfSnapshotToJson(r.contention) + "\n")) {
      std::fprintf(stderr, "failed to write contention report to %s\n",
                   args.contention_report_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "contention report: %s (bpw_profile --fold turns "
                 "it into flamegraph stacks)\n",
                 args.contention_report_out.c_str());
  }

  if (args.json) {
    std::printf("%s\n", ResultJson(args, config, r).c_str());
    return 0;
  }

  std::printf("mode:            %s\n", args.simulate ? "simulated" : "host");
  std::printf("system:          %s / %s%s\n", config.system.policy.c_str(),
              config.system.coordinator.c_str(),
              config.system.prefetch ? " +prefetch" : "");
  std::printf("workload:        %s (%llu pages, seed %llu)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.pages),
              static_cast<unsigned long long>(args.seed));
  std::printf("concurrency:     %u\n", args.threads);
  std::printf("window:          %.3f s\n", r.measure_seconds);
  std::printf("transactions:    %llu (%.0f tx/s)\n",
              static_cast<unsigned long long>(r.transactions),
              r.throughput_tps);
  std::printf("accesses:        %llu (%.0f/s)\n",
              static_cast<unsigned long long>(r.accesses),
              r.accesses_per_sec);
  std::printf("hit ratio:       %.2f%% (%llu hits / %llu misses)\n",
              r.hit_ratio * 100, static_cast<unsigned long long>(r.hits),
              static_cast<unsigned long long>(r.misses));
  std::printf("response:        avg %.1f us, p95 %.1f us\n",
              r.avg_response_us, r.p95_response_us);
  std::printf("lock:            %llu acquisitions, %llu contentions "
              "(%.1f /1M accesses), %llu TryLock failures\n",
              static_cast<unsigned long long>(r.lock.acquisitions),
              static_cast<unsigned long long>(r.lock.contentions),
              r.contentions_per_million,
              static_cast<unsigned long long>(r.lock.trylock_failures));
  if (r.lock_nanos_per_access > 0) {
    std::printf("lock time:       %.3f us per access\n",
                r.lock_nanos_per_access / 1000.0);
  }
  std::printf("evictions:       %llu (%llu write-backs)\n",
              static_cast<unsigned long long>(r.evictions),
              static_cast<unsigned long long>(r.writebacks));
  {
    const obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
    const bool traced = !args.trace_out.empty();
    const bool sampled = args.metrics_interval_ms > 0;
    if (traced || sampled) {
      std::printf("obs:            ");
      if (traced) {
        std::printf(" trace %llu events (%llu dropped)",
                    static_cast<unsigned long long>(recorder.total_events()),
                    static_cast<unsigned long long>(
                        recorder.dropped_events()));
      }
      if (sampled) {
        std::printf("%s sampler %zu samples (%llu overruns, %llu skipped "
                    "ticks)",
                    traced ? "," : "", r.metrics_samples.size(),
                    static_cast<unsigned long long>(r.sampler_overruns),
                    static_cast<unsigned long long>(r.sampler_skipped_ticks));
      }
      std::printf("\n");
    }
  }
  if (args.contention_report && args.contention_report_out.empty()) {
    std::printf("\ncontention profile (measurement window):\n%s",
                obs::ProfSnapshotToTable(r.contention).c_str());
  }
  return 0;
}
