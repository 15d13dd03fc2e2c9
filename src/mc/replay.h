// Replay files: the model checker's reproduction artifacts.
//
// A violation found by exploration is only useful if it can be re-executed
// on demand, so the explorer's decision trace is written to a small
// versioned text file that carries everything needed to rebuild the run:
// the full scenario configuration (not just a preset name — presets can
// drift) and the chosen thread id at every scheduling decision.
//
//   bpw-mc-replay 1
//   scenario eviction
//   param coordinator bp-wrapper
//   param threads 2
//   ...
//   violation invariant
//   choices 0 0 1 0 1
//   end
//
// Replay semantics: decision i takes choices[i]. Past the end of the list
// (or when the listed thread is not an enabled candidate — possible after
// minimization shortened the trace) the replayer falls back to a stable
// default: continue the current thread if it is enabled, else the lowest
// enabled id. Fallbacks are counted and reported, but only the resulting
// *outcome* decides whether a shrunk trace still reproduces the violation.
//
// The minimizer shrinks a violating trace while preserving the violation
// kind: first a binary search for the shortest violating prefix, then a
// backwards greedy pass dropping single entries. Both steps only ever
// remove entries, so minimization is monotone by construction.
#pragma once

#include <string>
#include <vector>

#include "mc/cooperative_scheduler.h"
#include "mc/scenario.h"
#include "util/status.h"

namespace bpw {
namespace mc {

struct ReplayFile {
  int version = 1;
  ScenarioConfig config;
  /// Informational: the violation kind the trace was recorded for ("none"
  /// for clean traces).
  std::string violation_kind = "none";
  std::vector<int> choices;
};

std::string SerializeReplay(const ReplayFile& replay);
StatusOr<ReplayFile> ParseReplay(const std::string& text);
Status WriteReplayFile(const ReplayFile& replay, const std::string& path);
StatusOr<ReplayFile> ReadReplayFile(const std::string& path);

struct ReplayOutcome {
  ExecutionResult result;
  /// Decisions where the recorded choice was unusable (missing or not an
  /// enabled candidate) and the default rule ran instead.
  uint64_t fallbacks = 0;
};

/// Re-executes the replay's scenario under its recorded choices. `sched`
/// must be installed as the process-global controller.
ReplayOutcome RunReplay(const ReplayFile& replay, CooperativeScheduler& sched);

/// A canonical text rendering of an execution (every decision, every
/// candidate signature, and the outcome). Two runs of the same replay must
/// serialize bit-identically — the determinism contract the tests pin down.
std::string SerializeRunRecord(const ExecutionResult& result);

struct MinimizeStats {
  uint64_t attempts = 0;    // candidate traces executed
  uint64_t shrunk_from = 0; // original length
  uint64_t shrunk_to = 0;   // final length
};

/// Shrinks `replay` to a shorter trace producing the same violation kind.
/// Returns the input unchanged if it does not reproduce a violation.
ReplayFile MinimizeReplay(const ReplayFile& replay, CooperativeScheduler& sched,
                          MinimizeStats* stats = nullptr);

}  // namespace mc
}  // namespace bpw
