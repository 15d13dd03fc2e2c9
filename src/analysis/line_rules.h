// Line-local lock-discipline rules: the checker module that runs on every
// file given to bpw_check, over the lexer's cleaned lines.
//
// Clang's thread-safety analysis proves *who* may touch guarded state; the
// hold prover (hold_cost.h) proves a critical section transitively free of
// allocation, blocking, IO, logging and clock reads. These rules cover the
// rest of the BP-Wrapper discipline, the parts that are about where a call
// sits relative to the lock rather than what it costs:
//
//   prefetch-in-critical-section    prefetching inside the lock defeats
//                                   §III-B: the point is to overlap memory
//                                   latency with *other* threads' work, so
//                                   it must precede Lock()/TryLock()
//   post-commit-under-lock          relaxed statistics counters and trace
//                                   emission are lock-free by construction;
//                                   under the contention lock they only
//                                   stretch the hold (library code only)
//   trylock-unchecked               a TryLock() whose result is discarded
//                                   leaves the lock state unknown
//   trylock-no-fallback             a function that TryLock()s must also
//                                   have a bounded blocking fallback
//                                   (Lock() or a ContentionLockGuard),
//                                   Fig. 4's queue-full path
//   raw-mutex                       no raw std::mutex / std::lock_guard /
//                                   std::unique_lock (and friends) in
//                                   library code outside src/sync/ — the
//                                   annotated, schedule-point-instrumented
//                                   wrappers exist so the thread-safety
//                                   analysis and the model checker see
//                                   every lock
//   lock-no-schedule-point          a src/ function (outside src/sync/)
//                                   that calls Lock()/TryLock() must carry
//                                   a BPW_SCHEDULE_POINT (or another
//                                   BPW_SCHEDULE_* / BPW_MC_* marker): a
//                                   lock acquisition with no decision
//                                   point is a blind spot for both the
//                                   model checker and the stress scheduler
//
// What counts as a critical section (heuristics, by design):
//   - the rest of the scope after a ContentionLockGuard / AdoptGuard
//     declaration,
//   - between `x.Lock();` and `x.Unlock();` in the same scope,
//   - the whole body of a function whose name ends in "Locked" (the repo
//     convention for "caller holds the lock", e.g. CommitLocked).
//
// Findings come back unsuppressed: bpw_check drops the ones a
// bpw-lint-allow comment covers, and audits the allows that cover none.
#pragma once

#include <string>
#include <vector>

#include "analysis/finding.h"
#include "analysis/lexer.h"

namespace bpw {
namespace analysis {

extern const char* const kLineRules[6];

/// True if `path` contains directory component(s) `dir` ("src/",
/// "src/sync/"), anchored at the start or at a '/' so "mysrc/" never
/// matches.
bool PathInDir(const std::string& path, const std::string& dir);

/// Runs the line rules over one lexed file. `path` scopes the library-only
/// rules (src/ minus src/sync/) unless `all_files_lib` is set, as it is
/// for the seeded-violation corpus.
std::vector<Finding> CheckLineRules(const std::string& path,
                                    const LexedSource& src,
                                    bool all_files_lib = false);

}  // namespace analysis
}  // namespace bpw
