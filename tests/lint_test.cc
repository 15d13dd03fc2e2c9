// Tests for the checker's line rules (analysis/line_rules.h) and for the
// critical-section tracking they share with the hold prover. Each test
// feeds a snippet shaped like real coordinator code and checks that the
// seeded violation (and only it) is flagged. Allocation, clock reads and
// logging under the lock are the hold prover's rules (hold-alloc,
// hold-clock, hold-log); the tests for them run it on the snippet the way
// the corpus run does.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/call_graph.h"
#include "analysis/effects.h"
#include "analysis/finding.h"
#include "analysis/hold_cost.h"
#include "analysis/lexer.h"
#include "analysis/line_rules.h"
#include "analysis/scope_graph.h"

namespace bpw {
namespace analysis {
namespace {

/// The line rules on one snippet, with bpw-lint-allow comments applied.
std::vector<Finding> LintSource(const std::string& path,
                                const std::string& source) {
  const LexedSource lex = Lex(source);
  std::vector<Finding> findings = CheckLineRules(path, lex);
  findings.erase(std::remove_if(findings.begin(), findings.end(),
                                [&](const Finding& f) {
                                  return lex.Allowed(f.line - 1, f.rule);
                                }),
                 findings.end());
  return findings;
}

/// The hold prover on one snippet, as library code.
std::vector<Finding> HoldFindings(const std::string& source) {
  TreeModel tree;
  tree.AddFile(BuildFileModel("src/core/seed.cc", source));
  const CallGraph cg = BuildCallGraph(tree);
  return CheckHolds(tree, cg, ComputeEffects(tree, cg), true).findings;
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

bool Has(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::string Dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) out += FormatFinding(f) + "\n";
  return out;
}

TEST(LintTest, SeededPrefetchAfterLockIsFlagged) {
  const char* src = R"cpp(
void BpWrapper::OnHit(AccessQueue& queue) {
  ContentionLockGuard guard(lock_);
  PrefetchForCommit(queue);
  CommitLocked(queue);
}
)cpp";
  auto findings = LintSource("seed.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "prefetch-in-critical-section");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintTest, SeededAllocationInCriticalSectionIsFlagged) {
  // The Locked suffix makes the body a hold region once the class owns
  // the lock.
  const char* src = R"cpp(
struct Batcher {
  ContentionLock lock_;
  void CommitLocked() {
    std::vector<Entry> batch;
    batch.reserve(64);
    Replay(batch);
  }
};
)cpp";
  auto findings = HoldFindings(src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "hold-alloc");
  EXPECT_EQ(findings[0].line, 6);
}

TEST(LintTest, PrefetchBeforeLockIsClean) {
  const char* src = R"cpp(
void BpWrapper::OnHit(AccessQueue& queue) {
  PrefetchForCommit(queue);
  if (lock_.TryLock()) {
    ContentionLockAdoptGuard guard(lock_);
    CommitLocked(queue);
    return;
  }
  ContentionLockGuard guard(lock_);
  CommitLocked(queue);
}
)cpp";
  auto findings = LintSource("clean.cc", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, GuardScopeEndsWithItsBlock) {
  // The guard lives in the TryLock block; the prefetch after the block
  // is outside the critical section.
  const char* src = R"cpp(
void Commit(AccessQueue& queue) {
  if (lock_.TryLock()) {
    ContentionLockAdoptGuard guard(lock_);
    Replay();
  }
  PrefetchForCommit(queue);
  ContentionLockGuard guard(lock_);
}
)cpp";
  auto findings = LintSource("scope.cc", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, ClockReadUnderLockIsFlagged) {
  const char* src = R"cpp(
struct Pool {
  ContentionLock lock_;
  void Commit() {
    ContentionLockGuard guard(lock_);
    const uint64_t now = NowNanos();
    Replay(now);
  }
};
)cpp";
  auto findings = HoldFindings(src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "hold-clock");
}

TEST(LintTest, ProfPhaseMacroUnderLockIsSanctioned) {
  // BPW_PROF_* macros are the blessed way to measure inside a critical
  // section: their clock reads are the measurement itself and compile out
  // under -DBPW_PROF=0, so the commit-phase breakdown stays lintable.
  const char* src = R"cpp(
struct Pool {
  ContentionLock lock_;
  void Commit() {
    ContentionLockGuard guard(lock_);
    BPW_PROF_PHASE("commit");
    {
      BPW_PROF_PHASE("replay");
      Replay();
    }
  }
};
)cpp";
  auto findings = HoldFindings(src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, RawProfilerPrimitiveUnderLockIsFlagged) {
  // The exemption is scoped to the macro spelling: constructing the RAII
  // scope (or calling the record functions) directly cannot compile out at
  // the call site, so under a lock it is a clock read like any other.
  const char* src = R"cpp(
struct Pool {
  ContentionLock lock_;
  void Commit() {
    ContentionLockGuard guard(lock_);
    obs::ScopedProfPhase phase(site_);
    obs::ProfRecordHold(site_, 100);
    Replay();
  }
};
)cpp";
  auto findings = HoldFindings(src);
  ASSERT_EQ(findings.size(), 2u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "hold-clock");
  EXPECT_EQ(findings[1].rule, "hold-clock");
}

TEST(LintTest, RawClockStaysFlaggedNextToProfMacro) {
  // The macro exempts its own line only — a raw NowNanos() elsewhere in
  // the same critical section is still a violation.
  const char* src = R"cpp(
struct Pool {
  ContentionLock lock_;
  void Commit() {
    ContentionLockGuard guard(lock_);
    BPW_PROF_PHASE("commit");
    const uint64_t now = NowNanos();
    Replay(now);
  }
};
)cpp";
  auto findings = HoldFindings(src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "hold-clock");
  EXPECT_EQ(findings[0].line, 7);
}

TEST(LintTest, LoggingUnderLockIsFlagged) {
  const char* src = R"cpp(
struct Pool {
  ContentionLock lock_;
  void Commit() {
    ContentionLockGuard guard(lock_);
    BPW_LOG_ERROR << "inside the critical section";
  }
};
)cpp";
  auto findings = HoldFindings(src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "hold-log");
}

TEST(LintTest, ManualLockUnlockSpanIsTracked) {
  const char* src = R"cpp(
void Manual(AccessQueue& queue) {
  lock_.Lock();
  PrefetchForCommit(queue);
  lock_.Unlock();
  PrefetchForCommit(queue);
}
)cpp";
  auto findings = LintSource("manual.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "prefetch-in-critical-section");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintTest, LockedSuffixFunctionsAreCriticalSections) {
  const char* src = R"cpp(
void Coordinator::ReplayLocked(AccessQueue& queue) {
  PrefetchForCommit(queue);
}
void Coordinator::Replay(AccessQueue& queue) {
  PrefetchForCommit(queue);
}
)cpp";
  auto findings = LintSource("locked.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintTest, DiscardedTryLockIsFlagged) {
  const char* src = R"cpp(
void Broken() {
  lock_.TryLock();
  lock_.Lock();
  lock_.Unlock();
}
)cpp";
  auto findings = LintSource("trylock.cc", src);
  EXPECT_TRUE(Has(findings, "trylock-unchecked")) << Dump(findings);
}

TEST(LintTest, TryLockWithoutFallbackIsFlagged) {
  const char* src = R"cpp(
void NoFallback(AccessQueue& queue) {
  if (lock_.TryLock()) {
    ContentionLockAdoptGuard guard(lock_);
    CommitLocked(queue);
  }
}
)cpp";
  // The adopt guard counts as handling the success path, so this
  // particular shape is accepted; removing the guard and the blocking
  // fallback must flag.
  const char* bare = R"cpp(
bool Poll() {
  if (lock_.TryLock()) {
    commit();
    unlock();
  }
  return false;
}
)cpp";
  auto findings = LintSource("bare.cc", bare);
  EXPECT_TRUE(Has(findings, "trylock-no-fallback")) << Dump(findings);
  findings = LintSource("guarded.cc", src);
  EXPECT_FALSE(Has(findings, "trylock-no-fallback")) << Dump(findings);
}

TEST(LintTest, AllowCommentSuppresses) {
  const char* src = R"cpp(
void CommitLocked(AccessQueue& queue) {
  // Warming the next batch under the lock is deliberate here.
  // bpw-lint-allow(prefetch-in-critical-section)
  PrefetchForCommit(queue);
  Replay(queue);
}
)cpp";
  auto findings = LintSource("allow.cc", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, AllowOnlySilencesTheNamedRule) {
  const char* src = R"cpp(
void CommitLocked(AccessQueue& queue) {
  // bpw-lint-allow(prefetch-in-critical-section)
  PrefetchForCommit(queue); commits_.fetch_add(1, std::memory_order_relaxed);
}
)cpp";
  auto findings = LintSource("src/core/allow2.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "post-commit-under-lock");
}

TEST(LintTest, CommentsAndStringsAreIgnored) {
  const char* src = R"cpp(
void Commit() {
  ContentionLockGuard guard(lock_);
  // PrefetchForCommit(queue) in a comment is fine
  Log("calling PrefetchForCommit(queue) by name in a string is fine");
  /* PrefetchRead(page) in a block comment too */
}
)cpp";
  auto findings = LintSource("comments.cc", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, RawMutexIsFlaggedInLibraryCode) {
  const char* src = R"cpp(
class Pool {
  std::mutex mu_;
  std::condition_variable_any cv_;
};
void Wait(std::unique_lock<std::mutex>& lk);
)cpp";
  auto findings = LintSource("src/buffer/pool.h", src);
  ASSERT_EQ(findings.size(), 2u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "raw-mutex");
  EXPECT_EQ(findings[0].line, 3) << "condition_variable_any is allowed "
                                    "(it waits on the annotated Mutex)";
  EXPECT_EQ(findings[1].line, 6);
}

TEST(LintTest, RawMutexIsScopedToSrcOutsideSync) {
  const char* src = R"cpp(
std::mutex mu_;
)cpp";
  EXPECT_TRUE(LintSource("src/sync/mutex.h", src).empty())
      << "the wrappers themselves live in src/sync/";
  EXPECT_TRUE(LintSource("tests/foo_test.cc", src).empty());
  EXPECT_TRUE(LintSource("tools/bpw_run.cc", src).empty());
  EXPECT_FALSE(LintSource("src/mc/sched.h", src).empty());
  EXPECT_FALSE(LintSource("/abs/path/src/core/x.cc", src).empty());
  EXPECT_TRUE(LintSource("mysrc/core/x.cc", src).empty())
      << "\"src/\" must match a whole path component";
}

TEST(LintTest, FileLevelAllowSuppressesEverywhereInTheFile) {
  const char* src = R"cpp(
// The monitor must not re-enter the instrumented wrappers.
// bpw-lint-allow-file(raw-mutex)
class Sched {
  std::mutex mu_;
};
std::unique_lock<std::mutex> Lk();
)cpp";
  auto findings = LintSource("src/mc/sched.h", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, FileLevelAllowOnlySilencesTheNamedRule) {
  const char* src = R"cpp(
// bpw-lint-allow-file(raw-mutex)
void CommitLocked(AccessQueue& queue) {
  std::mutex mu;
  PrefetchForCommit(queue);
}
)cpp";
  auto findings = LintSource("src/core/x.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "prefetch-in-critical-section");
}

TEST(LintTest, LockWithoutSchedulePointIsFlagged) {
  const char* src = R"cpp(
void Coordinator::OnHit(AccessQueue& queue) {
  if (lock_.TryLock()) {
    ContentionLockAdoptGuard guard(lock_);
    CommitLocked(queue);
    return;
  }
  ContentionLockGuard guard(lock_);
  CommitLocked(queue);
}
)cpp";
  auto findings = LintSource("src/core/coordinator.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "lock-no-schedule-point");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintTest, AnyScheduleMarkerSatisfiesTheLockRule) {
  const char* with_point = R"cpp(
void OnHit(AccessQueue& queue) {
  BPW_SCHEDULE_POINT("hit.before_trylock");
  if (lock_.TryLock()) {
    ContentionLockAdoptGuard guard(lock_);
    CommitLocked(queue);
    return;
  }
  ContentionLockGuard guard(lock_);
  CommitLocked(queue);
}
)cpp";
  const char* with_access = R"cpp(
void Drain() {
  lock_.Lock();
  BPW_MC_ACCESS_WRITE("queue", &queue_);
  lock_.Unlock();
}
)cpp";
  EXPECT_FALSE(Has(LintSource("src/core/a.cc", with_point),
                   "lock-no-schedule-point"));
  EXPECT_FALSE(Has(LintSource("src/core/b.cc", with_access),
                   "lock-no-schedule-point"));
}

TEST(LintTest, LockRuleIsScopedAndSuppressible) {
  const char* src = R"cpp(
void Drain() {
  lock_.Lock();
  Replay();
  lock_.Unlock();
}
)cpp";
  EXPECT_TRUE(Has(LintSource("src/core/c.cc", src), "lock-no-schedule-point"));
  EXPECT_FALSE(Has(LintSource("src/sync/c.cc", src),
                   "lock-no-schedule-point"));
  EXPECT_FALSE(Has(LintSource("tools/c.cc", src), "lock-no-schedule-point"));
  const char* allowed = R"cpp(
void Drain() {
  // startup path, runs before any worker exists
  // bpw-lint-allow(lock-no-schedule-point)
  lock_.Lock();
  Replay();
  lock_.Unlock();
}
)cpp";
  EXPECT_FALSE(Has(LintSource("src/core/c.cc", allowed),
                   "lock-no-schedule-point"));
}

TEST(LintTest, SeededPostCommitBookkeepingUnderLockIsFlagged) {
  // The anti-pattern the BP-Wrapper coordinator's early-release split
  // exists to remove: replay done, but the relaxed counters and the trace
  // emission still sit inside the critical section.
  const char* src = R"cpp(
void Coordinator::CommitLocked(AccessQueue& queue) {
  Replay(queue);
  commit_batches_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceEmit(obs::TraceEventKind::kBatchCommit, start, dur, n);
}
)cpp";
  auto findings = LintSource("src/core/seed.cc", src);
  ASSERT_EQ(findings.size(), 2u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "post-commit-under-lock");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[1].rule, "post-commit-under-lock");
  EXPECT_EQ(findings[1].line, 5);
}

TEST(LintTest, BookkeepingAfterEarlyReleaseIsClean) {
  // The fixed shape: apply under the lock, Unlock(), then count and emit.
  const char* src = R"cpp(
void Coordinator::CommitAndRelease(Slot* slot) {
  lock_.Lock();
  ApplyLocked(slot);
  lock_.Unlock();
  BPW_SCHEDULE_POINT("bpw.post_commit");
  commit_batches_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceEmit(obs::TraceEventKind::kBatchCommit, start, dur, n);
}
)cpp";
  auto findings = LintSource("src/core/clean.cc", src);
  EXPECT_FALSE(Has(findings, "post-commit-under-lock")) << Dump(findings);
}

TEST(LintTest, PostCommitRuleIsScopedToLibraryCode) {
  // Tests and tools legitimately poke counters under locks they own; the
  // rule polices the library's commit path only.
  const char* src = R"cpp(
void HarnessLocked() {
  observed_.fetch_add(1, std::memory_order_relaxed);
}
)cpp";
  EXPECT_TRUE(Has(LintSource("src/core/x.cc", src),
                  "post-commit-under-lock"));
  EXPECT_FALSE(Has(LintSource("tests/stress/x.cc", src),
                   "post-commit-under-lock"));
  EXPECT_FALSE(Has(LintSource("tools/x.cc", src),
                   "post-commit-under-lock"));
  EXPECT_FALSE(Has(LintSource("src/sync/x.cc", src),
                   "post-commit-under-lock"))
      << "the lock's own instrumentation counters live in src/sync/";
}

TEST(LintTest, PostCommitRuleIsSuppressible) {
  // pgBat/pgBatPre keep bookkeeping under the lock on purpose (they are
  // the baseline the early-release split is measured against) and carry
  // exactly this annotation.
  const char* src = R"cpp(
void Coordinator::CommitLocked(AccessQueue& queue) {
  Replay(queue);
  // baseline semantics: bookkeeping stays in the measured span
  // bpw-lint-allow(post-commit-under-lock)
  commit_batches_.fetch_add(1, std::memory_order_relaxed);
}
)cpp";
  auto findings = LintSource("src/core/allowed.cc", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, FormatFindingIsStable) {
  Finding f{"a.cc", 12, "prefetch-in-critical-section", "msg"};
  EXPECT_EQ(FormatFinding(f), "a.cc:12: [prefetch-in-critical-section] msg");
}

TEST(LintTest, RulesHelperSeesEveryFinding) {
  const char* src = R"cpp(
void CommitLocked(AccessQueue& queue) {
  PrefetchForCommit(queue); commits_.fetch_add(1, std::memory_order_relaxed);
}
)cpp";
  auto findings = LintSource("src/core/multi.cc", src);
  auto rules = Rules(findings);
  EXPECT_EQ(rules.size(), 2u) << Dump(findings);
}

// --- tokenizer hardening: the rules ride the shared lexer, so literal
// --- contents, raw strings, and spliced macros must never look like code.

TEST(LintTest, AllocWordsInsideStringLiteralsAreNotCode) {
  const char* src = R"cpp(
struct Pool {
  ContentionLock lock_;
  void CommitLocked() {
    Log("new std::vector<Entry> malloc push_back reserve PrefetchRead(p)");
    Apply();
  }
};
)cpp";
  EXPECT_TRUE(LintSource("src/core/pool.cc", src).empty());
  EXPECT_TRUE(HoldFindings(src).empty());
}

TEST(LintTest, RawStringBodySpanningLinesIsInvisibleToRules) {
  // The raw string holds prefetch and relaxed-counter spellings; a naive
  // line scanner would flag both lines.
  const char* src =
      "void Pool::CommitLocked() {\n"
      "  const char* doc = R\"txt(\n"
      "    PrefetchForCommit(queue);\n"
      "    commits_.fetch_add(1);\n"
      "  )txt\";\n"
      "  Apply(doc);\n"
      "}\n";
  auto findings = LintSource("src/core/pool.cc", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, AllowCommentInsideAStringDoesNotSuppress) {
  const char* src = R"cpp(
void Pool::CommitLocked(AccessQueue& queue) {
  Log("// bpw-lint-allow(prefetch-in-critical-section)");
  PrefetchForCommit(queue);
}
)cpp";
  auto findings = LintSource("src/core/pool.cc", src);
  EXPECT_TRUE(Has(findings, "prefetch-in-critical-section")) << Dump(findings);
}

TEST(LintTest, SplicedMacroDefinitionIsNotScannedAsCode) {
  // A line-continuation macro whose body prefetches must not be attributed
  // to the surrounding function.
  const char* src =
      "#define POOL_WARM(q) \\\n"
      "  PrefetchForCommit(q)\n"
      "void Pool::CommitLocked() {\n"
      "  Apply();\n"
      "}\n";
  auto findings = LintSource("src/core/pool.cc", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, EscapedQuoteCharLiteralKeepsLaterLinesLive) {
  // If the lexer derailed on '\'' the later prefetch would be blanked out
  // along with everything else.
  const char* src = R"cpp(
void Pool::CommitLocked(AccessQueue& queue) {
  char sep = '\'';
  (void)sep;
  PrefetchForCommit(queue);
}
)cpp";
  auto findings = LintSource("src/core/pool.cc", src);
  EXPECT_TRUE(Has(findings, "prefetch-in-critical-section")) << Dump(findings);
}

}  // namespace
}  // namespace analysis
}  // namespace bpw
