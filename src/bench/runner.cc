#include "bench/runner.h"

#include <cinttypes>
#include <cstdio>

#include "bench/stats.h"
#include "obs/json.h"
#include "workload/trace_fingerprint.h"

namespace bpw {
namespace bench {

namespace {

TrialSample SampleFrom(const DriverResult& r) {
  TrialSample s;
  s.throughput_tps = r.throughput_tps;
  s.accesses_per_sec = r.accesses_per_sec;
  s.avg_response_us = r.avg_response_us;
  s.p95_response_us = r.p95_response_us;
  s.contentions_per_million = r.contentions_per_million;
  s.hit_ratio = r.hit_ratio;
  s.measure_seconds = r.measure_seconds;
  return s;
}

/// Registry metrics that are exactly reproducible for deterministic cases.
/// Timing-valued registry entries (storage.*_nanos, histogram stats) are
/// deliberately absent.
constexpr const char* kDeterministicRegistryKeys[] = {
    "coord.commit_batches",   "coord.committed_entries",
    "coord.stale_commits",    "coord.lock_fallbacks",
    "coord.queue_lock_acquisitions",
};

void FillCounters(const DriverResult& r, CaseResult& out) {
  out.counters["accesses"] = r.accesses;
  out.counters["hits"] = r.hits;
  out.counters["misses"] = r.misses;
  out.counters["evictions"] = r.evictions;
  out.counters["writebacks"] = r.writebacks;
  out.counters["lock.acquisitions"] = r.lock.acquisitions;
  out.counters["lock.contentions"] = r.lock.contentions;
  out.counters["lock.trylock_failures"] = r.lock.trylock_failures;
  for (const char* key : kDeterministicRegistryKeys) {
    const auto it = r.metrics.values.find(key);
    if (it != r.metrics.values.end()) {
      out.counters[key] = static_cast<uint64_t>(it->second);
    }
  }
}

StatusOr<DriverResult> RunOnce(const BenchCase& c) {
  if (c.mode == ExecMode::kSim) return RunSimulation(c.config, c.sim_costs);
  return RunDriver(c.config);
}

std::string HexFingerprint(uint64_t fp) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, fp);
  return buf;
}

}  // namespace

StatusOr<SuiteRunResult> RunSuite(const BenchSuite& suite,
                                  const RunnerOptions& options) {
  SuiteRunResult result;
  result.suite = suite.name;
  result.description = suite.description;
  result.trials = options.trials > 0 ? options.trials : suite.trials;
  result.warmup_trials =
      options.warmup_trials >= 0 ? options.warmup_trials : suite.warmup_trials;
  if (result.trials < 1) {
    return Status::InvalidArgument("suite needs at least one trial");
  }
  result.env = CollectEnvFingerprint();

  for (const BenchCase& c : suite.cases) {
    CaseResult cr;
    cr.name = c.name;
    cr.mode = c.mode;
    cr.deterministic = c.deterministic;
    cr.workload = c.config.workload;
    cr.threads = c.config.num_threads;
    cr.system = c.config.system;
    cr.workload_fingerprint =
        TraceFingerprint(c.config.workload, c.config.num_threads,
                         kFingerprintAccessesPerThread);

    // Deterministic cases: one exact pass — a repeat reproduces the same
    // counters by construction, so extra trials buy nothing.
    const int warmups = c.deterministic ? 0 : result.warmup_trials;
    const int trials = c.deterministic ? 1 : result.trials;
    if (options.verbose) {
      std::fprintf(stderr, "[bpw_bench] %s: %d warmup + %d trial(s)...\n",
                   c.name.c_str(), warmups, trials);
    }
    for (int i = 0; i < warmups + trials; ++i) {
      auto run = RunOnce(c);
      if (!run.ok()) {
        return Status::Internal("case '" + c.name +
                                "' failed: " + run.status().ToString());
      }
      if (i < warmups) continue;
      cr.trials.push_back(SampleFrom(run.value()));
      if (c.deterministic) FillCounters(run.value(), cr);
    }
    result.cases.push_back(std::move(cr));
  }
  return result;
}

namespace {

std::string TrialJson(const TrialSample& t) {
  using obs::JsonNumber;
  std::string out = "{";
  out += "\"throughput_tps\":" + JsonNumber(t.throughput_tps);
  out += ",\"accesses_per_sec\":" + JsonNumber(t.accesses_per_sec);
  out += ",\"avg_response_us\":" + JsonNumber(t.avg_response_us);
  out += ",\"p95_response_us\":" + JsonNumber(t.p95_response_us);
  out += ",\"contentions_per_million\":" + JsonNumber(t.contentions_per_million);
  out += ",\"hit_ratio\":" + JsonNumber(t.hit_ratio);
  out += ",\"measure_seconds\":" + JsonNumber(t.measure_seconds);
  out += "}";
  return out;
}

std::string SummaryJson(const Summary& s) {
  using obs::JsonNumber;
  std::string out = "{";
  out += "\"n\":" + JsonNumber(static_cast<double>(s.n));
  out += ",\"mean\":" + JsonNumber(s.mean);
  out += ",\"stddev\":" + JsonNumber(s.stddev);
  out += ",\"min\":" + JsonNumber(s.min);
  out += ",\"max\":" + JsonNumber(s.max);
  out += ",\"p50\":" + JsonNumber(s.p50);
  out += ",\"p95\":" + JsonNumber(s.p95);
  out += "}";
  return out;
}

std::string CaseJson(const CaseResult& c) {
  using obs::JsonNumber;
  using obs::JsonString;
  std::string out = "{";
  out += "\"name\":" + JsonString(c.name);
  out += ",\"mode\":" +
         JsonString(c.mode == ExecMode::kSim ? "sim" : "host");
  out += ",\"deterministic\":" +
         std::string(c.deterministic ? "true" : "false");

  out += ",\"workload\":{";
  out += "\"name\":" + JsonString(c.workload.name);
  out += ",\"pages\":" + JsonNumber(static_cast<double>(c.workload.num_pages));
  out += ",\"seed\":" + JsonNumber(static_cast<double>(c.workload.seed));
  out += ",\"threads\":" + JsonNumber(c.threads);
  out += ",\"fingerprint\":" + JsonString(HexFingerprint(c.workload_fingerprint));
  out += "}";

  out += ",\"system\":{";
  out += "\"policy\":" + JsonString(c.system.policy);
  out += ",\"coordinator\":" + JsonString(c.system.coordinator);
  out += ",\"prefetch\":" + std::string(c.system.prefetch ? "true" : "false");
  out += ",\"queue\":" + JsonNumber(static_cast<double>(c.system.queue_size));
  out += ",\"threshold\":" +
         JsonNumber(static_cast<double>(c.system.batch_threshold));
  out += "}";

  out += ",\"trials\":[";
  for (size_t i = 0; i < c.trials.size(); ++i) {
    if (i > 0) out += ',';
    out += TrialJson(c.trials[i]);
  }
  out += "]";

  std::vector<double> tps, resp, cont;
  for (const TrialSample& t : c.trials) {
    tps.push_back(t.throughput_tps);
    resp.push_back(t.avg_response_us);
    cont.push_back(t.contentions_per_million);
  }
  out += ",\"summary\":{";
  out += "\"throughput_tps\":" + SummaryJson(Summarize(tps));
  out += ",\"avg_response_us\":" + SummaryJson(Summarize(resp));
  out += ",\"contentions_per_million\":" + SummaryJson(Summarize(cont));
  out += "}";

  if (c.deterministic) {
    out += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : c.counters) {
      if (!first) out += ',';
      first = false;
      out += JsonString(name) + ":" + JsonNumber(static_cast<double>(value));
    }
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace

std::string SuiteResultToJson(const SuiteRunResult& result) {
  using obs::JsonNumber;
  using obs::JsonString;
  std::string out = "{";
  out += "\"schema\":" + JsonString(kBenchSchemaName);
  out += ",\"schema_version\":" + JsonNumber(kBenchSchemaVersion);
  out += ",\"suite\":" + JsonString(result.suite);
  out += ",\"description\":" + JsonString(result.description);
  out += ",\"trials\":" + JsonNumber(result.trials);
  out += ",\"warmup_trials\":" + JsonNumber(result.warmup_trials);
  out += ",\"environment\":" + EnvFingerprintToJson(result.env);
  out += ",\"cases\":[";
  for (size_t i = 0; i < result.cases.size(); ++i) {
    if (i > 0) out += ',';
    out += CaseJson(result.cases[i]);
  }
  out += "]}\n";
  return out;
}

Status WriteStringToFile(const std::string& content,
                         const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != content.size() || !close_ok) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace bpw
