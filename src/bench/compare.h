// Candidate-vs-baseline judgement over two bpw-bench JSON documents.
//
// Deterministic counters and workload fingerprints must be exactly equal.
// Any drift is a real behaviour change, so it fails the gate; a
// deterministic baseline case missing from the candidate fails it too,
// since its gated signal is gone. (Older baselines, such as the frozen
// BENCH_seed.json, also hold wall-clock cases: their absence is only a
// note.) Wall-clock numbers in the documents are not judged.
#pragma once

#include <string>
#include <vector>

#include "bench/json_reader.h"
#include "util/status.h"

namespace bpw {
namespace bench {

struct CounterVerdict {
  std::string case_name;
  std::string counter;
  /// kuint64max-safe: counters are stored as doubles from JSON but are
  /// integral by construction.
  double baseline = 0;
  double candidate = 0;
  bool present_in_baseline = true;
  bool present_in_candidate = true;
  bool match = false;
};

struct CompareReport {
  std::vector<CounterVerdict> counters;  ///< mismatches AND matches
  std::vector<std::string> notes;        ///< case set changes
  bool counter_drift = false;      ///< any counter mismatch or lost case
  bool fingerprint_drift = false;  ///< any workload fingerprint change

  /// True when the comparison should fail.
  bool ShouldFail() const { return counter_drift || fingerprint_drift; }
};

/// Compares two parsed bpw-bench documents. Fails (Status) on schema
/// mismatch or malformed documents; drift is reported via CompareReport,
/// not via Status.
StatusOr<CompareReport> CompareBenchResults(const JsonValue& baseline,
                                            const JsonValue& candidate);

/// Human-readable verdict (one line per drifted counter, then a summary).
std::string RenderCompareReport(const CompareReport& report);

}  // namespace bench
}  // namespace bpw
