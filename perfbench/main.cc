// bpw_perfbench: the host buffer-manager benchmark.
//
//   bpw_perfbench --workload hot-t2 --seed 7 --seconds 10 --trace 0
//
// Replays pre-generated per-worker access streams, closed loop, through the
// real pgBatPre stack and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). Human-readable lines come
// first; the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every correctness check passed. See NOTES.md.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "util/clock.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  const char* trace;
  uint64_t footprint_pages;
  size_t num_frames;
  uint32_t workers;
};

// Why each workload exists, and the spreads that set the worker counts, are
// recorded in NOTES.md.
constexpr Workload kWorkloads[] = {
    {"hot-t1", "dbt1", 8192, 8192, 1},
    {"hot-t2", "dbt1", 8192, 8192, 2},
    {"evict-rw", "dbt2", 8192, 2048, 1},
};

/// Accesses generated per worker; streams replay cyclically.
constexpr uint64_t kStreamAccesses = 1 << 21;
/// Set-ups timed per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 15;
constexpr double kWarmupSeconds = 0.5;
/// Measurement windows per second of measurement (see Summarize).
constexpr double kWindowsPerSecond = 10.0;
/// Traced runs time one transaction in this many.
constexpr uint32_t kSampleEvery = 32;
/// Reconciliation tolerance of the traced run's self times.
constexpr double kReconcileTolerance = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args.workload.empty();
}

double ResidentMiB() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Failed correctness checks, by description.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void ExpectOk(const bpw::Status& status, const std::string& what) {
    Expect(status.ok(), what + ": " + status.ToString());
  }
  bool ok() const { return failures_.empty(); }
  void Print() const {
    std::printf("checks: %s\n", ok() ? "all passed" : "FAILED");
    for (const auto& failure : failures_) {
      std::printf("check failed: %s\n", failure.c_str());
    }
  }

 private:
  std::vector<std::string> failures_;
};

/// The checks every run makes on a stack after its workers are joined.
void CheckRun(Stack& stack, const TimedRunResult& run, const char* phase,
              Checks& checks) {
  const Tally& t = run.total;
  const std::string p = std::string(phase) + ": ";
  checks.Expect(t.attempted > 0, p + "no FetchPage was attempted");
  checks.Expect(t.stamp_errors == 0,
                p + std::to_string(t.stamp_errors) +
                    " fetched pages carried another page's stamp");
  checks.Expect(t.hits + t.misses + t.failed == t.attempted,
                p + "hits + misses + failures != attempts");
  checks.Expect(t.hits + t.misses == t.succeeded,
                p + "hits + misses != successful fetches");
  checks.ExpectOk(stack.pool->FlushAll(), p + "FlushAll");
  checks.ExpectOk(stack.pool->CheckIntegrity(), p + "CheckIntegrity");
}

struct EndToEnd {
  double accesses_per_s = 0;
  double tx_p50_us = 0;
  double tx_p99_us = 0;
  double hit_ratio = 0;
  double fetch_ok_ratio = 0;
};

/// Worker time left after the hypervisor's steal: on a shared host a vCPU
/// that is not scheduled runs nothing. Steal is charged evenly to the
/// workers; the floor keeps steal on CPUs that ran something else from
/// dominating.
double UnstolenSeconds(double wall_s, double steal_s, uint32_t workers) {
  return std::max(wall_s - steal_s / workers, wall_s / 2);
}

/// The time metrics are medians over the half of the windows in which the
/// hypervisor stole least: steal comes and goes from run to run on a shared
/// host, and it moves throughput and latency of more than one worker by more
/// than the stolen time itself.
EndToEnd Summarize(const TimedRunResult& run, uint32_t workers) {
  std::vector<size_t> order(run.windows.size());
  for (size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return run.window_steal_seconds[a] < run.window_steal_seconds[b];
  });
  order.resize((order.size() + 1) / 2);
  std::vector<double> rates, p50s, p99s;
  for (const size_t w : order) {
    const Tally& t = run.windows[w];
    rates.push_back(static_cast<double>(t.succeeded) /
                    UnstolenSeconds(run.window_seconds[w],
                                    run.window_steal_seconds[w], workers));
    p50s.push_back(t.tx_ns.Percentile(50) / 1e3);
    p99s.push_back(t.tx_ns.Percentile(99) / 1e3);
  }
  const Tally& t = run.total;
  EndToEnd e;
  e.accesses_per_s = Median(rates);
  e.tx_p50_us = Median(p50s);
  e.tx_p99_us = Median(p99s);
  e.hit_ratio = Ratio(static_cast<double>(t.hits),
                      static_cast<double>(t.hits + t.misses));
  e.fetch_ok_ratio = Ratio(static_cast<double>(t.succeeded),
                           static_cast<double>(t.attempted));
  return e;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", tally.attempted, tally.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void PrintRunLine(const char* phase, const TimedRunResult& run,
                  const EndToEnd& e, uint32_t workers) {
  const Tally& t = run.total;
  double steal_s = 0;
  for (double s : run.window_steal_seconds) steal_s += s;
  std::printf(
      "%s: %.3f s, attempted=%" PRIu64 " hits=%" PRIu64 " misses=%" PRIu64
      " failed=%" PRIu64 " fetch_fail_ratio=%.6g transactions=%" PRIu64
      " wall_accesses_per_s=%.6g steal_share=%.4f accesses_per_s=%.6g"
      " tx_p50_us=%.4g tx_p99_us=%.4g\n",
      phase, run.measure_seconds, t.attempted, t.hits, t.misses, t.failed,
      Ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)),
      t.transactions,
      static_cast<double>(t.succeeded) / run.measure_seconds,
      steal_s / (workers * run.measure_seconds), e.accesses_per_s,
      e.tx_p50_us, e.tx_p99_us);
}

/// Builds a stack and returns its set-up time in seconds through `seconds`.
bpw::StatusOr<Stack> TimedSetup(const StackConfig& config, double& seconds) {
  const uint64_t start = bpw::NowNanos();
  auto stack = BuildStack(config);
  seconds = static_cast<double>(bpw::NowNanos() - start) / 1e9;
  return stack;
}

struct Measured {
  TimedRunResult run;
  double setup_s = 0;
  /// Resident memory added from just before set-up to the end of the run.
  double rss_mib = 0;
};

/// Sets up a stack, runs the workers on it, checks it and tears it down.
bpw::StatusOr<Measured> Measure(const StackConfig& config,
                                const Streams& streams,
                                const TimedRunConfig& run_config,
                                const char* phase, Checks& checks) {
  Measured m;
  const double rss_before = ResidentMiB();
  auto stack = TimedSetup(config, m.setup_s);
  if (!stack.ok()) return stack.status();
  m.run = RunTimed(*stack.value().pool, streams, run_config);
  m.rss_mib = ResidentMiB() - rss_before;
  CheckRun(stack.value(), m.run, phase, checks);
  return m;
}

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const uint32_t workers = std::min<uint32_t>(
      workload->workers,
      std::max<uint32_t>(1, std::thread::hardware_concurrency()));

  bpw::WorkloadSpec spec;
  spec.name = workload->trace;
  spec.num_pages = workload->footprint_pages;
  spec.seed = args.seed;

  std::printf("perfbench: workload=%s system=pgBatPre trace=%s footprint=%" PRIu64
              " frames=%zu workers=%u page_size=4096 seed=%" PRIu64
              " seconds=%g trace_run=%d\n",
              workload->name, workload->trace, workload->footprint_pages,
              workload->num_frames, workers, args.seed, args.seconds,
              args.trace ? 1 : 0);

  const uint64_t gen_start = bpw::NowNanos();
  auto streams_or = GenerateStreams(spec, workers, kStreamAccesses);
  const double gen_s = static_cast<double>(bpw::NowNanos() - gen_start) / 1e9;
  if (!streams_or.ok()) {
    std::fprintf(stderr, "stream generation: %s\n",
                 streams_or.status().ToString().c_str());
    return 2;
  }
  const Streams& streams = streams_or.value();
  size_t stream_accesses = 0;
  for (const Stream& s : streams.per_worker) stream_accesses += s.size();
  std::printf("streams: fingerprint=0x%016" PRIx64 " accesses=%zu gen_s=%.4f\n",
              streams.fingerprint, stream_accesses, gen_s);
  std::fflush(stdout);

  StackConfig stack_config;
  stack_config.footprint_pages = workload->footprint_pages;
  stack_config.num_frames = workload->num_frames;

  TimedRunConfig run_config;
  run_config.warmup_s = kWarmupSeconds;
  run_config.sample_every = kSampleEvery;

  Checks checks;
  std::vector<Metric> metrics;
  Tally reported;

  if (!args.trace) {
    run_config.measure_s = args.seconds;
    run_config.windows = std::max(1, static_cast<int>(args.seconds *
                                                      kWindowsPerSecond));
    auto measured = Measure(stack_config, streams, run_config, "run", checks);
    if (!measured.ok()) {
      std::fprintf(stderr, "set-up: %s\n",
                   measured.status().ToString().c_str());
      return 2;
    }
    const TimedRunResult& run = measured.value().run;
    std::vector<double> setup_times{measured.value().setup_s};
    for (int i = 1; i < kSetupRepeats; ++i) {
      double seconds = 0;
      auto extra = TimedSetup(stack_config, seconds);
      checks.ExpectOk(extra.status(), "repeated set-up");
      setup_times.push_back(seconds);
    }
    const EndToEnd e = Summarize(run, workers);
    PrintRunLine("run", run, e, workers);
    reported = run.total;
    metrics = {
        {"accesses_per_s", e.accesses_per_s, "1/s"},
        {"tx_p50_us", e.tx_p50_us, "us"},
        {"tx_p99_us", e.tx_p99_us, "us"},
        {"hit_ratio", e.hit_ratio, "ratio"},
        {"fetch_ok_ratio", e.fetch_ok_ratio, "ratio"},
        {"setup_s", Median(setup_times), "s"},
        {"pool_rss_mib", measured.value().rss_mib, "MiB"},
    };
  } else {
    // Untraced then traced, half the measurement each; the difference in
    // accesses_per_s is the cost of tracing.
    run_config.measure_s = args.seconds / 2;
    run_config.windows = std::max(1, static_cast<int>(run_config.measure_s *
                                                      kWindowsPerSecond));
    auto untraced =
        Measure(stack_config, streams, run_config, "untraced", checks);
    if (!untraced.ok()) {
      std::fprintf(stderr, "set-up: %s\n",
                   untraced.status().ToString().c_str());
      return 2;
    }
    stack_config.traced = true;
    run_config.traced = true;
    auto traced_or =
        Measure(stack_config, streams, run_config, "traced", checks);
    if (!traced_or.ok()) {
      std::fprintf(stderr, "set-up: %s\n",
                   traced_or.status().ToString().c_str());
      return 2;
    }
    const EndToEnd plain = Summarize(untraced.value().run, workers);
    PrintRunLine("untraced", untraced.value().run, plain, workers);
    const TimedRunResult& run = traced_or.value().run;
    const EndToEnd traced = Summarize(run, workers);
    PrintRunLine("traced", run, traced, workers);
    reported = untraced.value().run.total;
    reported.Merge(run.total);

    LayerStats layers;
    std::vector<const SpanRecorder*> recorders;
    uint64_t sampled = 0;
    for (const auto& recorder : run.recorders) {
      layers.Merge(recorder->stats());
      recorders.push_back(recorder.get());
      sampled += recorder->sampled_transactions();
    }
    const double hits = static_cast<double>(layers.fetch_hit_ns.count());
    const double misses = static_cast<double>(layers.fetch_miss_ns.count());
    const double hit_self = Ratio(layers.hit_self_ns_sum, hits);
    const double miss_self = Ratio(layers.miss_self_ns_sum, misses);

    // Self time plus the coordinator calls inside must give back the fetch.
    const double hit_sum = hit_self + layers.on_hit_ns.Mean();
    const double miss_sum =
        miss_self + Ratio(layers.choose_victim_ns.sum() +
                              layers.complete_miss_ns.sum(),
                          misses);
    const double hit_gap =
        Ratio(std::abs(hit_sum - layers.fetch_hit_ns.Mean()),
              layers.fetch_hit_ns.Mean());
    const double miss_gap =
        Ratio(std::abs(miss_sum - layers.fetch_miss_ns.Mean()),
              layers.fetch_miss_ns.Mean());
    std::printf("reconcile: hit fetch mean %.1f ns = self %.1f + on_hit %.1f "
                "(gap %.2f%%); miss fetch mean %.1f ns = self %.1f + core %.1f "
                "(gap %.2f%%); nesting errors %" PRIu64 "\n",
                layers.fetch_hit_ns.Mean(), hit_self, layers.on_hit_ns.Mean(),
                hit_gap * 100, layers.fetch_miss_ns.Mean(), miss_self,
                miss_sum - miss_self, miss_gap * 100, layers.nesting_errors);
    checks.Expect(hits > 0, "traced: no sampled hit");
    checks.Expect(hit_gap <= kReconcileTolerance,
                  "traced: hit self times do not reconcile within 5%");
    checks.Expect(miss_gap <= kReconcileTolerance,
                  "traced: miss self times do not reconcile within 5%");
    checks.Expect(layers.nesting_errors == 0,
                  "traced: a child span lies outside its parent");

    if (!args.spans_out.empty()) {
      const bool wrote = WriteSpans(args.spans_out, recorders);
      checks.Expect(wrote, "traced: cannot write " + args.spans_out);
      size_t spans = 0;
      for (const SpanRecorder* r : recorders) spans += r->retained().size();
      std::printf("spans: %zu spans of %" PRIu64
                  " sampled transactions (1 in %u) -> %s\n",
                  spans, sampled, kSampleEvery, args.spans_out.c_str());
    }

    const double accesses = static_cast<double>(run.total.succeeded);
    const double kaccess = accesses / 1e3;
    const double committed = run.metrics.value("coord.committed_entries");
    const bpw::LockStats& lock = run.lock;
    metrics = {
        {"buffer.fetch_hit_ns.p50", layers.fetch_hit_ns.Percentile(50), "ns"},
        {"buffer.fetch_hit_ns.p99", layers.fetch_hit_ns.Percentile(99), "ns"},
        {"buffer.fetch_miss_ns.p50", layers.fetch_miss_ns.Percentile(50), "ns"},
        {"buffer.fetch_miss_ns.p99", layers.fetch_miss_ns.Percentile(99), "ns"},
        {"buffer.hit_self_ns.mean", hit_self, "ns"},
        {"buffer.miss_self_ns.mean", miss_self, "ns"},
        {"buffer.release_ns.mean", layers.release_ns.Mean(), "ns"},
        {"buffer.stall_share", Ratio(layers.stall_ns_sum, layers.fetch_ns_sum),
         "ratio"},
        {"buffer.evictions_per_kaccess",
         Ratio(static_cast<double>(run.evictions), kaccess), "count/kaccess"},
        {"buffer.writebacks_per_kaccess",
         Ratio(static_cast<double>(run.writebacks), kaccess), "count/kaccess"},
        {"buffer.eviction_races", static_cast<double>(run.eviction_races),
         "count"},
        {"core.on_hit_ns.mean", layers.on_hit_ns.Mean(), "ns"},
        {"core.on_hit_ns.p99", layers.on_hit_ns.Percentile(99), "ns"},
        {"core.choose_victim_ns.mean", layers.choose_victim_ns.Mean(), "ns"},
        {"core.choose_victim_ns.p99", layers.choose_victim_ns.Percentile(99),
         "ns"},
        {"core.complete_miss_ns.mean", layers.complete_miss_ns.Mean(), "ns"},
        {"core.entries_per_commit",
         Ratio(committed, run.metrics.value("coord.commit_batches")),
         "entries/commit"},
        {"core.stale_share",
         Ratio(run.metrics.value("coord.stale_commits"), committed), "ratio"},
        {"core.lock_fallbacks", run.metrics.value("coord.lock_fallbacks"),
         "count"},
        {"sync.acquisitions_per_kaccess",
         Ratio(static_cast<double>(lock.acquisitions), kaccess),
         "count/kaccess"},
        {"sync.contentions_per_maccess",
         Ratio(static_cast<double>(lock.contentions), accesses / 1e6),
         "count/maccess"},
        {"sync.trylock_failure_share",
         Ratio(static_cast<double>(lock.trylock_failures),
               static_cast<double>(lock.acquisitions + lock.trylock_failures)),
         "ratio"},
        {"sync.wait_ns_per_access",
         Ratio(static_cast<double>(lock.wait_nanos), accesses), "ns/access"},
        {"sync.hold_ns_per_access",
         Ratio(static_cast<double>(lock.hold_nanos), accesses), "ns/access"},
        {"policy.hold_ns_per_entry",
         Ratio(static_cast<double>(lock.hold_nanos),
               committed + static_cast<double>(run.total.misses)),
         "ns/entry"},
        {"storage.reads_per_kaccess",
         Ratio(static_cast<double>(run.storage.reads), kaccess),
         "count/kaccess"},
        {"storage.writes_per_kaccess",
         Ratio(static_cast<double>(run.storage.writes), kaccess),
         "count/kaccess"},
        {"workload.gen_s", gen_s, "s"},
        {"trace.overhead_pct",
         Ratio(plain.accesses_per_s - traced.accesses_per_s,
               plain.accesses_per_s) * 100,
         "%"},
    };
  }

  checks.Print();
  PrintResult(checks.ok(), reported, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bpw_perfbench --workload hot-t1|hot-t2|evict-rw "
                 "[--seed N] [--seconds S] [--trace 0|1] [--spans-out FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
