// Self-tests for bpw_lint, the lock-discipline linter. Each test feeds the
// library a snippet shaped like real coordinator code and checks that the
// seeded violation (and only it) is flagged. The two seeded cases required
// by the acceptance bar — prefetch issued after Lock() and heap allocation
// inside the critical section — are the first two tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace bpw {
namespace lint {
namespace {

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
  const char* src = R"cpp(
void SharedQueue::CommitLocked() {
  std::vector<Entry> batch;
  batch.reserve(64);
  Replay(batch);
}
)cpp";
  auto findings = LintSource("seed.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "critical-section-alloc");
  EXPECT_EQ(findings[0].line, 4);
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
  // The guard lives in the TryLock block; the allocation after the block
  // is outside the critical section.
  const char* src = R"cpp(
void Commit() {
  if (lock_.TryLock()) {
    ContentionLockAdoptGuard guard(lock_);
    Replay();
  }
  buffer_.reserve(64);
  ContentionLockGuard guard(lock_);
}
)cpp";
  auto findings = LintSource("scope.cc", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, ClockReadUnderLockIsFlagged) {
  const char* src = R"cpp(
void Commit() {
  ContentionLockGuard guard(lock_);
  const uint64_t now = NowNanos();
  Replay(now);
}
)cpp";
  auto findings = LintSource("clock.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "clock-read-in-critical-section");
}

TEST(LintTest, ProfPhaseMacroUnderLockIsSanctioned) {
  // BPW_PROF_* macros are the blessed way to measure inside a critical
  // section: their clock reads are the measurement itself and compile out
  // under -DBPW_PROF=0, so the commit-phase breakdown stays lintable.
  const char* src = R"cpp(
void Commit() {
  ContentionLockGuard guard(lock_);
  BPW_PROF_PHASE("commit");
  {
    BPW_PROF_PHASE("replay");
    Replay();
  }
}
)cpp";
  auto findings = LintSource("prof_macro.cc", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, RawProfilerPrimitiveUnderLockIsFlagged) {
  // The exemption is scoped to the macro spelling: constructing the RAII
  // scope (or calling the record functions) directly cannot compile out at
  // the call site, so under a lock it is a clock read like any other.
  const char* src = R"cpp(
void Commit() {
  ContentionLockGuard guard(lock_);
  obs::ScopedProfPhase phase(site_);
  obs::ProfRecordHold(site_, 100);
  Replay();
}
)cpp";
  auto findings = LintSource("prof_raw.cc", src);
  ASSERT_EQ(findings.size(), 2u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "clock-read-in-critical-section");
  EXPECT_EQ(findings[1].rule, "clock-read-in-critical-section");
}

TEST(LintTest, RawClockStaysFlaggedNextToProfMacro) {
  // The macro exempts its own line only — a raw NowNanos() elsewhere in
  // the same critical section is still a violation.
  const char* src = R"cpp(
void Commit() {
  ContentionLockGuard guard(lock_);
  BPW_PROF_PHASE("commit");
  const uint64_t now = NowNanos();
  Replay(now);
}
)cpp";
  auto findings = LintSource("prof_mixed.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "clock-read-in-critical-section");
  EXPECT_EQ(findings[0].line, 5);
}

TEST(LintTest, LoggingUnderLockIsFlagged) {
  const char* src = R"cpp(
void Commit() {
  ContentionLockGuard guard(lock_);
  BPW_LOG_ERROR << "inside the critical section";
}
)cpp";
  auto findings = LintSource("log.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "logging-in-critical-section");
}

TEST(LintTest, ManualLockUnlockSpanIsTracked) {
  const char* src = R"cpp(
void Manual() {
  lock_.Lock();
  scratch_.push_back(1);
  lock_.Unlock();
  scratch_.push_back(2);
}
)cpp";
  auto findings = LintSource("manual.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "critical-section-alloc");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintTest, LockedSuffixFunctionsAreCriticalSections) {
  const char* src = R"cpp(
void Coordinator::ReplayLocked() {
  entries_.push_back(Entry{});
}
void Coordinator::Replay() {
  entries_.push_back(Entry{});
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
void CommitLocked() {
  // Traced commits time themselves; see the design note.
  // bpw-lint-allow(clock-read-in-critical-section)
  const uint64_t start = NowNanos();
  Replay(start);
}
)cpp";
  auto findings = LintSource("allow.cc", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, AllowOnlySilencesTheNamedRule) {
  const char* src = R"cpp(
void CommitLocked() {
  // bpw-lint-allow(clock-read-in-critical-section)
  scratch_.push_back(NowNanos());
}
)cpp";
  auto findings = LintSource("allow2.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "critical-section-alloc");
}

TEST(LintTest, CommentsAndStringsAreIgnored) {
  const char* src = R"cpp(
void Commit() {
  ContentionLockGuard guard(lock_);
  // NowNanos() in a comment is fine
  Log("calling NowNanos() by name in a string is fine");
  /* batch.reserve(64) in a block comment too */
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
void CommitLocked() {
  std::mutex mu;
  scratch_.push_back(1);
}
)cpp";
  auto findings = LintSource("src/core/x.cc", src);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "critical-section-alloc");
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
  Finding f{"a.cc", 12, "critical-section-alloc", "msg"};
  EXPECT_EQ(FormatFinding(f), "a.cc:12: [critical-section-alloc] msg");
}

TEST(LintTest, RulesHelperSeesEveryFinding) {
  const char* src = R"cpp(
void CommitLocked() {
  scratch_.push_back(NowNanos());
}
)cpp";
  auto findings = LintSource("multi.cc", src);
  auto rules = Rules(findings);
  EXPECT_EQ(rules.size(), 2u) << Dump(findings);
}

// --- tokenizer hardening: the linter rides the shared lexer, so literal
// --- contents, raw strings, and spliced macros must never look like code.

TEST(LintTest, AllocWordsInsideStringLiteralsAreNotCode) {
  const char* src = R"cpp(
void Pool::CommitLocked() {
  Log("new std::vector<Entry> malloc push_back reserve");
  Apply();
}
)cpp";
  auto findings = LintSource("src/core/pool.cc", src);
  EXPECT_FALSE(Has(findings, "critical-section-alloc")) << Dump(findings);
}

TEST(LintTest, RawStringBodySpanningLinesIsInvisibleToRules) {
  // The raw string holds both an allocation spelling and a clock call; a
  // naive line scanner would flag both lines.
  const char* src =
      "void Pool::CommitLocked() {\n"
      "  const char* doc = R\"txt(\n"
      "    batch.reserve(64); new Entry;\n"
      "    NowNanos();\n"
      "  )txt\";\n"
      "  Apply(doc);\n"
      "}\n";
  auto findings = LintSource("src/core/pool.cc", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, AllowCommentInsideAStringDoesNotSuppress) {
  const char* src = R"cpp(
void Pool::CommitLocked() {
  Log("// bpw-lint-allow(critical-section-alloc)");
  batch_.push_back(1);
}
)cpp";
  auto findings = LintSource("src/core/pool.cc", src);
  EXPECT_TRUE(Has(findings, "critical-section-alloc")) << Dump(findings);
}

TEST(LintTest, SplicedMacroDefinitionIsNotScannedAsCode) {
  // A line-continuation macro whose body allocates must not be attributed
  // to the surrounding function.
  const char* src =
      "#define POOL_GROW(v) \\\n"
      "  (v).push_back(new Entry)\n"
      "void Pool::CommitLocked() {\n"
      "  Apply();\n"
      "}\n";
  auto findings = LintSource("src/core/pool.cc", src);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(LintTest, EscapedQuoteCharLiteralKeepsLaterLinesLive) {
  // If the lexer derailed on '\'' the later allocation would be blanked
  // out along with everything else.
  const char* src = R"cpp(
void Pool::CommitLocked() {
  char sep = '\'';
  (void)sep;
  batch_.push_back(1);
}
)cpp";
  auto findings = LintSource("src/core/pool.cc", src);
  EXPECT_TRUE(Has(findings, "critical-section-alloc")) << Dump(findings);
}

}  // namespace
}  // namespace lint
}  // namespace bpw
