#include "bench/compare.h"

#include <cstdio>
#include <map>
#include <set>

#include "bench/runner.h"

namespace bpw {
namespace bench {

namespace {

std::map<std::string, double> CounterMap(const JsonValue& case_obj) {
  std::map<std::string, double> out;
  const JsonValue* counters = case_obj.Find("counters");
  if (counters == nullptr || !counters->is_object()) return out;
  for (const auto& [name, value] : counters->object) {
    if (value.is_number()) out[name] = value.number_value;
  }
  return out;
}

Status ValidateDocument(const JsonValue& doc, const char* which) {
  if (!doc.is_object()) {
    return Status::InvalidArgument(std::string(which) +
                                   ": not a JSON object");
  }
  const double version = doc.NumberOr("schema_version", -1);
  if (version != kBenchSchemaVersion) {
    return Status::InvalidArgument(
        std::string(which) + ": unsupported schema_version " +
        std::to_string(version) + " (want " +
        std::to_string(kBenchSchemaVersion) + ")");
  }
  const JsonValue* cases = doc.Find("cases");
  if (cases == nullptr || !cases->is_array()) {
    return Status::InvalidArgument(std::string(which) + ": missing cases[]");
  }
  return Status::OK();
}

void CompareCounters(const std::string& name, const JsonValue& base_case,
                     const JsonValue& cand_case, CompareReport& report) {
  const auto base = CounterMap(base_case);
  const auto cand = CounterMap(cand_case);
  std::set<std::string> keys;
  for (const auto& [k, _] : base) keys.insert(k);
  for (const auto& [k, _] : cand) keys.insert(k);
  for (const std::string& key : keys) {
    CounterVerdict v;
    v.case_name = name;
    v.counter = key;
    const auto b = base.find(key);
    const auto c = cand.find(key);
    v.present_in_baseline = b != base.end();
    v.present_in_candidate = c != cand.end();
    if (v.present_in_baseline) v.baseline = b->second;
    if (v.present_in_candidate) v.candidate = c->second;
    v.match = v.present_in_baseline && v.present_in_candidate &&
              v.baseline == v.candidate;
    if (!v.match) report.counter_drift = true;
    report.counters.push_back(v);
  }
}

}  // namespace

StatusOr<CompareReport> CompareBenchResults(const JsonValue& baseline,
                                            const JsonValue& candidate) {
  Status s = ValidateDocument(baseline, "baseline");
  if (!s.ok()) return s;
  s = ValidateDocument(candidate, "candidate");
  if (!s.ok()) return s;

  CompareReport report;

  const JsonValue& base_cases = *baseline.Find("cases");
  const JsonValue& cand_cases = *candidate.Find("cases");
  std::map<std::string, const JsonValue*> cand_by_name;
  for (const JsonValue& c : cand_cases.array) {
    cand_by_name[c.StringOr("name", "")] = &c;
  }

  std::set<std::string> seen;
  for (const JsonValue& base_case : base_cases.array) {
    const std::string name = base_case.StringOr("name", "");
    seen.insert(name);
    const auto it = cand_by_name.find(name);
    if (it == cand_by_name.end()) {
      report.notes.push_back("case '" + name +
                             "' missing from candidate");
      // A vanished deterministic case means the gated signal is gone:
      // treat as drift rather than silently narrowing coverage.
      if (base_case.BoolOr("deterministic", false)) {
        report.counter_drift = true;
      }
      continue;
    }
    const JsonValue& cand_case = *it->second;

    const JsonValue* base_wl = base_case.Find("workload");
    const JsonValue* cand_wl = cand_case.Find("workload");
    const std::string base_fp =
        base_wl != nullptr ? base_wl->StringOr("fingerprint", "") : "";
    const std::string cand_fp =
        cand_wl != nullptr ? cand_wl->StringOr("fingerprint", "") : "";
    if (base_fp != cand_fp) {
      report.fingerprint_drift = true;
      report.notes.push_back("case '" + name +
                             "': workload fingerprint changed (" + base_fp +
                             " -> " + cand_fp +
                             ") — baselines for this case are invalid");
    }

    CompareCounters(name, base_case, cand_case, report);
  }
  for (const auto& [name, _] : cand_by_name) {
    if (seen.count(name) == 0) {
      report.notes.push_back("case '" + name +
                             "' is new in candidate (no baseline)");
    }
  }
  return report;
}

namespace {

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace

std::string RenderCompareReport(const CompareReport& report) {
  std::string out;
  for (const std::string& note : report.notes) {
    out += "note: " + note + "\n";
  }

  size_t counter_mismatches = 0;
  for (const CounterVerdict& v : report.counters) {
    if (v.match) continue;
    ++counter_mismatches;
    out += "COUNTER DRIFT " + v.case_name + " " + v.counter + ": ";
    if (!v.present_in_baseline) {
      out += "missing from baseline, candidate=" + FormatDouble(v.candidate, 0);
    } else if (!v.present_in_candidate) {
      out += "baseline=" + FormatDouble(v.baseline, 0) +
             ", missing from candidate";
    } else {
      out += FormatDouble(v.baseline, 0) + " -> " +
             FormatDouble(v.candidate, 0);
    }
    out += "\n";
  }

  out += "summary: " + std::to_string(report.counters.size()) +
         " counters checked, " + std::to_string(counter_mismatches) +
         " drifted\n";
  out += std::string("verdict: ") + (report.ShouldFail() ? "FAIL" : "PASS") +
         "\n";
  return out;
}

}  // namespace bench
}  // namespace bpw
