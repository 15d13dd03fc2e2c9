// End-to-end tests of the benchmark pipeline: runner -> schema-versioned
// JSON -> parser -> compare gate.
//
// The acceptance contract these pin down:
//  - every built-in case is count-based and deterministic;
//  - the smoke suite produces schema-valid bpw-bench/1 JSON with an
//    environment fingerprint, one sample per case, and deterministic
//    counters;
//  - a self-compare reports no drift;
//  - an off-by-one lock-acquisition counter drift is flagged.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/compare.h"
#include "bench/json_reader.h"
#include "bench/runner.h"
#include "bench/suite.h"
#include "gtest/gtest.h"

namespace bpw {
namespace bench {
namespace {

// One in-process run of the real "smoke" suite, shared by every test in
// this file.
const SuiteRunResult& SmokeRun() {
  static const SuiteRunResult* run = [] {
    const BenchSuite* smoke = FindSuite("smoke");
    EXPECT_NE(smoke, nullptr);
    auto result = RunSuite(*smoke, RunnerOptions{});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return new SuiteRunResult(std::move(result).value());
  }();
  return *run;
}

const std::string& SmokeJson() {
  static const std::string* json =
      new std::string(SuiteResultToJson(SmokeRun()));
  return *json;
}

JsonValue ParsedSmoke() {
  auto doc = ParseJson(SmokeJson());
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

// --- mutable JSON helpers (JsonValue members are public) -----------------

JsonValue* FindMut(JsonValue& obj, const std::string& key) {
  if (!obj.is_object()) return nullptr;
  for (auto& [k, v] : obj.object) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue* FindCase(JsonValue& doc, const std::string& name) {
  JsonValue* cases = FindMut(doc, "cases");
  if (cases == nullptr) return nullptr;
  for (JsonValue& c : cases->array) {
    if (c.StringOr("name", "") == name) return &c;
  }
  return nullptr;
}

constexpr const char* kDetCase = "det.sim.dbt2.pgBatPre.p8";

// --- suite registry ------------------------------------------------------

TEST(BenchSuites, BuiltinsAreRegistered) {
  EXPECT_NE(FindSuite("smoke"), nullptr);
  EXPECT_NE(FindSuite("paper"), nullptr);
  EXPECT_EQ(FindSuite("no-such-suite"), nullptr);
  const auto names = KnownSuiteNames();
  EXPECT_GE(names.size(), 2u);
}

TEST(BenchSuites, EveryBuiltinCaseIsDeterministic) {
  // The gate compares counters for exact equality, so every case must be
  // count-based, and a host case must run on one worker: a time window or
  // a second host thread would make the counters depend on the machine.
  for (const std::string& name : KnownSuiteNames()) {
    const BenchSuite* suite = FindSuite(name);
    ASSERT_NE(suite, nullptr) << name;
    for (const BenchCase& c : suite->cases) {
      EXPECT_GT(c.config.transactions_per_thread, 0u)
          << name << "/" << c.name << " is duration-based";
      if (c.mode == ExecMode::kHost) {
        EXPECT_EQ(c.config.num_threads, 1u)
            << name << "/" << c.name << " runs several host threads";
      }
    }
  }
}

TEST(BenchSuites, RegisterReplacesByName) {
  BenchSuite custom;
  custom.name = "pipeline-test-suite";
  custom.description = "v1";
  RegisterSuite(custom);
  custom.description = "v2";
  RegisterSuite(std::move(custom));
  const BenchSuite* found = FindSuite("pipeline-test-suite");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->description, "v2");
}

// --- schema validity -----------------------------------------------------

TEST(BenchPipeline, SmokeJsonIsSchemaValid) {
  JsonValue doc = ParsedSmoke();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.StringOr("schema", ""), kBenchSchemaName);
  EXPECT_EQ(doc.NumberOr("schema_version", -1), kBenchSchemaVersion);
  EXPECT_EQ(doc.StringOr("suite", ""), "smoke");
  EXPECT_EQ(doc.NumberOr("trials", 0), 1);

  const JsonValue* env = doc.Find("environment");
  ASSERT_NE(env, nullptr);
  ASSERT_TRUE(env->is_object());
  EXPECT_GE(env->NumberOr("hardware_threads", 0), 1);
  EXPECT_FALSE(env->StringOr("compiler", "").empty());
  EXPECT_FALSE(env->StringOr("os", "").empty());
  EXPECT_FALSE(env->StringOr("arch", "").empty());

  const JsonValue* cases = doc.Find("cases");
  ASSERT_NE(cases, nullptr);
  ASSERT_TRUE(cases->is_array());
  ASSERT_FALSE(cases->array.empty());

  for (const JsonValue& c : cases->array) {
    EXPECT_FALSE(c.StringOr("name", "").empty());
    const std::string mode = c.StringOr("mode", "");
    EXPECT_TRUE(mode == "host" || mode == "sim") << mode;

    const JsonValue* wl = c.Find("workload");
    ASSERT_NE(wl, nullptr);
    const std::string fp = wl->StringOr("fingerprint", "");
    ASSERT_EQ(fp.size(), 18u) << fp;  // "0x" + 16 hex digits
    EXPECT_EQ(fp.substr(0, 2), "0x");
    EXPECT_NE(fp, "0x0000000000000000")
        << "fingerprint must be computed, not defaulted";

    const JsonValue* trials = c.Find("trials");
    ASSERT_NE(trials, nullptr);
    ASSERT_TRUE(trials->is_array());
    ASSERT_EQ(trials->array.size(), 1u);
    EXPECT_TRUE(trials->array[0].Find("throughput_tps") != nullptr);
    EXPECT_GT(trials->array[0].NumberOr("measure_seconds", 0), 0.0);
    EXPECT_TRUE(c.BoolOr("deterministic", false));

    const JsonValue* counters = c.Find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_TRUE(counters->is_object());
    EXPECT_GT(counters->NumberOr("accesses", 0), 0.0);
    EXPECT_NE(counters->Find("lock.acquisitions"), nullptr);
  }
}

TEST(BenchPipeline, DeterministicCasesReproduceExactly) {
  // Re-run the smoke suite: every gated counter must come back
  // identical — the premise of the exact-equality gate.
  const BenchSuite* smoke = FindSuite("smoke");
  ASSERT_NE(smoke, nullptr);
  ASSERT_FALSE(smoke->cases.empty());
  auto rerun = RunSuite(*smoke, RunnerOptions{});
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();

  for (const CaseResult& again : rerun.value().cases) {
    const CaseResult* first = nullptr;
    for (const CaseResult& c : SmokeRun().cases) {
      if (c.name == again.name) first = &c;
    }
    ASSERT_NE(first, nullptr) << again.name;
    EXPECT_EQ(first->counters, again.counters)
        << "deterministic case '" << again.name
        << "' did not reproduce its counters";
    EXPECT_EQ(first->workload_fingerprint, again.workload_fingerprint);
  }
}

// --- compare gate --------------------------------------------------------

TEST(BenchCompare, SelfCompareIsACleanPass) {
  JsonValue base = ParsedSmoke();
  JsonValue cand = ParsedSmoke();
  auto report = CompareBenchResults(base, cand);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().counter_drift);
  EXPECT_FALSE(report.value().fingerprint_drift);
  EXPECT_FALSE(report.value().ShouldFail());
  EXPECT_FALSE(report.value().counters.empty());
  const std::string rendered = RenderCompareReport(report.value());
  EXPECT_NE(rendered.find("verdict: PASS"), std::string::npos) << rendered;
}

TEST(BenchCompare, FlagsOffByOneLockAcquisitionDrift) {
  JsonValue base = ParsedSmoke();
  JsonValue cand = ParsedSmoke();
  JsonValue* cand_case = FindCase(cand, kDetCase);
  ASSERT_NE(cand_case, nullptr);
  JsonValue* counters = FindMut(*cand_case, "counters");
  ASSERT_NE(counters, nullptr);
  JsonValue* acq = FindMut(*counters, "lock.acquisitions");
  ASSERT_NE(acq, nullptr);
  acq->number_value += 1;  // the smallest possible behaviour change

  auto report = CompareBenchResults(base, cand);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().counter_drift);
  EXPECT_TRUE(report.value().ShouldFail());

  const CounterVerdict* drift = nullptr;
  for (const CounterVerdict& v : report.value().counters) {
    if (!v.match) {
      EXPECT_EQ(drift, nullptr) << "only one counter should drift";
      drift = &v;
    }
  }
  ASSERT_NE(drift, nullptr);
  EXPECT_EQ(drift->case_name, kDetCase);
  EXPECT_EQ(drift->counter, "lock.acquisitions");
  EXPECT_EQ(drift->candidate, drift->baseline + 1);

  const std::string rendered = RenderCompareReport(report.value());
  EXPECT_NE(rendered.find("COUNTER DRIFT"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("verdict: FAIL"), std::string::npos) << rendered;
}

TEST(BenchCompare, WorkloadFingerprintDriftInvalidatesBaseline) {
  JsonValue base = ParsedSmoke();
  JsonValue cand = ParsedSmoke();
  JsonValue* wl = FindMut(*FindCase(cand, kDetCase), "workload");
  ASSERT_NE(wl, nullptr);
  JsonValue* fp = FindMut(*wl, "fingerprint");
  ASSERT_NE(fp, nullptr);
  fp->string_value = "0xdeadbeefdeadbeef";

  auto report = CompareBenchResults(base, cand);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().fingerprint_drift);
  EXPECT_TRUE(report.value().ShouldFail());
}

TEST(BenchCompare, MissingDeterministicCaseIsDrift) {
  JsonValue base = ParsedSmoke();
  JsonValue cand = ParsedSmoke();
  JsonValue* cases = FindMut(cand, "cases");
  ASSERT_NE(cases, nullptr);
  cases->array.erase(
      std::remove_if(cases->array.begin(), cases->array.end(),
                     [](const JsonValue& c) {
                       return c.StringOr("name", "") == kDetCase;
                     }),
      cases->array.end());

  auto report = CompareBenchResults(base, cand);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().counter_drift)
      << "a vanished deterministic case silently narrows gate coverage";
}

TEST(BenchCompare, SchemaVersionMismatchIsAnError) {
  JsonValue base = ParsedSmoke();
  JsonValue cand = ParsedSmoke();
  JsonValue* version = FindMut(cand, "schema_version");
  ASSERT_NE(version, nullptr);
  version->number_value = kBenchSchemaVersion + 1;
  auto report = CompareBenchResults(base, cand);
  EXPECT_FALSE(report.ok());
}

// --- JSON reader spot checks --------------------------------------------

TEST(JsonReader, ParsesEscapesAndNesting) {
  auto doc = ParseJson(
      "{\"a\":[1,2.5,-3e2],\"s\":\"q\\\"\\n\\u0041\",\"b\":true,"
      "\"n\":null,\"o\":{\"k\":0}}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue& v = doc.value();
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[2].number_value, -300.0);
  EXPECT_EQ(v.StringOr("s", ""), "q\"\nA");
  EXPECT_TRUE(v.BoolOr("b", false));
  const JsonValue* n = v.Find("n");
  ASSERT_NE(n, nullptr);
  EXPECT_TRUE(n->is_null());
}

TEST(JsonReader, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("[1,2,").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
}

TEST(JsonReader, RoundTripsRunnerOutput) {
  // The parser must accept everything obs/json.h emits; a second
  // parse-serialize of the smoke document is the cheap proxy.
  auto doc = ParseJson(SmokeJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
}

}  // namespace
}  // namespace bench
}  // namespace bpw
