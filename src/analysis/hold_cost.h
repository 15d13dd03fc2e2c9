// Hold-region prover + static hold-cost model (a bpw_check module).
//
// A hold region is every token range over which a ContentionLock or
// SpinLock is held: lexical guards (ContentionLockGuard / SpinLockGuard /
// ContentionLockAdoptGuard), manual Lock()/Unlock() spans, the branch
// body of a TryLock, and whole bodies entered holding — BPW_REQUIRES on a
// lock member, BPW_REQUIRES(this) capability functions (the policy
// convention), and the FooLocked() suffix convention when the enclosing
// class owns such a lock. Mutex and MutexGuard are deliberately NOT hold
// regions: Mutex is the condvar-user wrapper and blocking under it is the
// intended behaviour (BufferPool::BeginLoad waits under one).
//
// Inside every hold region the checker proves, using the transitive
// effect summaries (effects.h) over the call graph, that nothing
// allocates, blocks, does IO, logs, reads clocks, loops unboundedly, or
// escapes through an indirect call — transitively, through any chain of
// helpers and virtual dispatch, so a call hidden in a helper is still
// seen. Two extra rules cover the lock-free hit path: a CAS retry loop
// must be bounded (structurally or via BPW_BOUNDED_BY) and must not
// block, which together prove bounded lock-free retry.
//
// Alongside the proof, every hold region gets a static cost: a weighted
// statement count over its transitive extent (loop bodies multiply by 8
// per nesting level, callee costs land at their call sites, recursion
// doubles once). The absolute number is meaningless; the RANK is the
// point — `bpw_profile --reconcile` joins these ranks against the runtime
// profiler's measured per-site hold histograms and flags sites whose
// static and measured ranks diverge, which is how a stale annotation or
// an unmodelled workload effect surfaces.
#pragma once

#include <string>
#include <vector>

#include "analysis/call_graph.h"
#include "analysis/effects.h"
#include "analysis/finding.h"

namespace bpw {
namespace analysis {

/// One lock-hold region, with its static cost.
struct HoldSite {
  std::string function;   ///< qualified enclosing function
  std::string lock_text;  ///< the lock expression as spelled
  std::string lock_class; ///< owner::field of the lock
  std::string prof_label; ///< BindProfSite label, "" when unbound
  std::string file;
  int line = 0;           ///< line the hold opens on
  std::string kind;       ///< guard|adopt|manual|trylock|requires|capability|locked-suffix
  double cost = 0;        ///< static weighted cost of the region
};

struct HoldReport {
  std::vector<Finding> findings;
  std::vector<HoldSite> sites;
};

extern const char* const kHoldRules[9];

/// `all_files_lib` treats every file as library code (corpus runs) instead
/// of the default scope: under src/, excluding src/sync/ and src/analysis/.
/// Findings come back unsuppressed; bpw_check applies bpw-lint-allow.
HoldReport CheckHolds(const TreeModel& tree, const CallGraph& cg,
                      const EffectMap& effects, bool all_files_lib = false);

/// {"sites": [{label, lock, lock_class, file, line, function, kind,
/// weight}, ...]} sorted by descending weight — the input to
/// `bpw_profile --reconcile`.
std::string HoldCostsToJson(const HoldReport& report);

}  // namespace analysis
}  // namespace bpw
