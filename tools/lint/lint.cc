#include "lint/lint.h"

#include <fstream>
#include <regex>
#include <sstream>

#include "analysis/lexer.h"

namespace bpw {
namespace lint {

namespace {

// Lexing lives in the shared src/analysis library now (PR 4's hand-rolled
// blanking pass moved there and grew raw-string / line-continuation /
// preprocessor handling); this file keeps only the rule layer, which runs
// over analysis::LexedSource::cleaned_lines.
using analysis::LexedSource;

// ---------------------------------------------------------------------------
// Scope tracking.
// ---------------------------------------------------------------------------

enum class ScopeKind { kNamespace, kType, kFunction, kBlock };

struct Scope {
  ScopeKind kind = ScopeKind::kBlock;
  bool cs = false;            // inside a contention-lock critical section
  std::string manual_lock;    // receiver of an open manual X.Lock() span
  // Function-scope bookkeeping (kFunction only):
  std::string name;
  bool has_fallback = false;  // blocking Lock() or ContentionLockGuard seen
  std::vector<int> trylock_lines;
  bool has_schedule_point = false;  // any BPW_SCHEDULE_* / BPW_MC_* marker
  std::vector<int> lock_call_lines;
};

bool MatchesAny(const std::string& line, const std::regex& re) {
  return std::regex_search(line, re);
}

/// True if `path` contains directory component(s) `dir` ("src/",
/// "src/sync/"), anchored at the start or at a '/' so "mysrc/" never
/// matches.
bool PathInDir(const std::string& path, const std::string& dir) {
  size_t pos = path.find(dir);
  while (pos != std::string::npos) {
    if (pos == 0 || path[pos - 1] == '/') return true;
    pos = path.find(dir, pos + 1);
  }
  return false;
}

std::vector<Finding> LintImpl(const std::string& path,
                              const std::string& source, bool honor_allows) {
  const LexedSource src = analysis::Lex(source);
  std::vector<Finding> findings;

  // Patterns. All run on cleaned lines (no comments, no literals).
  static const std::regex kAlloc(
      R"((\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|make_unique\s*<|make_shared\s*<|\.reserve\s*\(|\.resize\s*\(|\.push_back\s*\(|\.emplace_back\s*\())");
  static const std::regex kClock(
      R"((\bNowNanos\s*\(|steady_clock|system_clock|high_resolution_clock|\bclock_gettime\s*\())");
  // Contention-profiler spellings. The BPW_PROF_* macros are the sanctioned
  // way to measure time inside a critical section — the clock reads they
  // imply ARE the measurement and vanish under -DBPW_PROF=0 — so a line
  // using them is exempt from the clock rule (scoped to that line, not the
  // file). The raw primitives behind the macros imply the same clock reads
  // but cannot compile out at the call site, so inside a CS they are
  // flagged like any other clock read.
  static const std::regex kProfMacro(R"(\bBPW_PROF_[A-Z_]+\s*\()");
  static const std::regex kProfRaw(
      R"(\bScopedProfPhase\b|\b(ProfRecordAcquire|ProfRecordHold|ProfWaiterEnter|ProfWaiterExit)\s*\()");
  static const std::regex kLog(R"(\bBPW_LOG_[A-Z]+)");
  // Post-commit bookkeeping: relaxed statistics counters and trace
  // emission. Both are lock-free by construction (that is what
  // memory_order_relaxed and the SPSC trace ring mean), so holding the
  // contention lock across them is pure critical-section stretch — the
  // exact nanoseconds the BP-Wrapper coordinator's early-release split
  // moves out of the lock.
  static const std::regex kRelaxedCounter(R"(\.fetch_(add|sub)\s*\()");
  static const std::regex kTraceEmit(R"(\bTraceEmit\s*\()");
  static const std::regex kPrefetch(
      R"(\bPrefetch(Read|Write|Range|Hint|ForCommit)\s*\()");
  static const std::regex kGuardDecl(
      R"(\bContentionLock(Adopt)?Guard\s+\w+\s*[({])");
  static const std::regex kManualLock(R"(^\s*([\w\->\.\[\]]+)\.Lock\s*\(\s*\)\s*;)");
  static const std::regex kManualUnlock(
      R"(^\s*([\w\->\.\[\]]+)\.Unlock\s*\(\s*\)\s*;)");
  static const std::regex kTryLock(R"(\bTryLock\s*\()");
  static const std::regex kTryLockDiscarded(
      R"(^\s*[\w\->\.\[\]]*\.?TryLock\s*\(\s*\)\s*;)");
  static const std::regex kBlockingLock(R"(\.Lock\s*\()");
  static const std::regex kControlKw(
      R"(\b(if|for|while|switch|catch|do|else|return)\b)");
  static const std::regex kTypeKw(R"(\b(class|struct|enum|union)\s+\w)");
  static const std::regex kNamespaceKw(R"(\bnamespace\b)");
  static const std::regex kLambdaIntro(R"(\[[^\]]*\]\s*\()");
  static const std::regex kRawMutex(
      R"(\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock)\b)");
  static const std::regex kLockCall(R"((\.|->)\s*(Lock|TryLock)\s*\()");
  static const std::regex kSchedulePoint(
      R"(\bBPW_(SCHEDULE_POINT(_OBJ)?|SCHEDULE_YIELD|MC_ACCESS_(READ|WRITE))\s*\()");

  // The two path-scoped rules apply to library code only: everything under
  // src/ except src/sync/ (the annotated wrappers and the instrumentation
  // they carry are exactly what the rules push callers toward).
  const bool lib_code = PathInDir(path, "src/") && !PathInDir(path, "src/sync/");

  std::vector<Scope> stack;
  stack.push_back(Scope{ScopeKind::kNamespace, false, "", "", false, {}});
  std::string pending;  // statement text since the last ; { or }

  auto cs_active = [&]() -> bool {
    return !stack.empty() && stack.back().cs;
  };
  auto enclosing_function = [&]() -> Scope* {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == ScopeKind::kFunction) return &*it;
    }
    return nullptr;
  };
  auto report = [&](int line_index, const std::string& rule,
                    const std::string& message) {
    if (honor_allows && src.Allowed(line_index, rule)) return;
    findings.push_back(Finding{path, line_index + 1, rule, message});
  };

  for (int li = 0; li < static_cast<int>(src.cleaned_lines.size()); ++li) {
    const std::string& line = src.cleaned_lines[li];

    // ---- Per-line rule checks (before scope updates: a guard declared on
    // this line opens the CS for *subsequent* lines).
    if (cs_active()) {
      if (MatchesAny(line, kAlloc)) {
        report(li, "critical-section-alloc",
               "heap allocation while the contention lock is held");
      }
      const bool prof_macro_line = MatchesAny(line, kProfMacro);
      if (MatchesAny(line, kClock) && !prof_macro_line) {
        report(li, "clock-read-in-critical-section",
               "clock read while the contention lock is held");
      }
      if (MatchesAny(line, kProfRaw) && !prof_macro_line) {
        report(li, "clock-read-in-critical-section",
               "raw contention-profiler call under the lock implies clock "
               "reads that cannot compile out; use BPW_PROF_PHASE / "
               "BindProfSite instead");
      }
      if (MatchesAny(line, kLog)) {
        report(li, "logging-in-critical-section",
               "logging while the contention lock is held");
      }
      if (MatchesAny(line, kPrefetch)) {
        report(li, "prefetch-in-critical-section",
               "prefetch under the lock defeats its purpose; issue it "
               "before Lock()/TryLock() (paper SIII-B)");
      }
      if (lib_code && MatchesAny(line, kRelaxedCounter)) {
        report(li, "post-commit-under-lock",
               "statistics counter updated while the contention lock is "
               "held; relaxed counters need no lock — apply, Unlock(), "
               "then count (the early-release split)");
      }
      if (lib_code && MatchesAny(line, kTraceEmit)) {
        report(li, "post-commit-under-lock",
               "trace emitted while the contention lock is held; the trace "
               "ring is lock-free — apply, Unlock(), then emit (the "
               "early-release split)");
      }
    }
    if (MatchesAny(line, kTryLockDiscarded)) {
      report(li, "trylock-unchecked",
             "TryLock() result discarded; branch on it or use Lock()");
    }
    if (MatchesAny(line, kTryLock)) {
      if (Scope* fn = enclosing_function()) {
        if (!honor_allows || !src.Allowed(li, "trylock-no-fallback")) {
          fn->trylock_lines.push_back(li);
        }
      }
    }
    if (MatchesAny(line, kBlockingLock) || MatchesAny(line, kGuardDecl)) {
      if (Scope* fn = enclosing_function()) fn->has_fallback = true;
    }
    if (lib_code && MatchesAny(line, kRawMutex)) {
      report(li, "raw-mutex",
             "raw std::mutex/lock types outside src/sync/; use bpw::Mutex, "
             "SpinLock or ContentionLock (annotated and schedule-point "
             "instrumented)");
    }
    if (lib_code) {
      if (Scope* fn = enclosing_function()) {
        if (MatchesAny(line, kSchedulePoint)) fn->has_schedule_point = true;
        if (MatchesAny(line, kLockCall) &&
            (!honor_allows || !src.Allowed(li, "lock-no-schedule-point"))) {
          fn->lock_call_lines.push_back(li);
        }
      }
    }

    // ---- Scope / CS-state updates, character by character.
    for (size_t ci = 0; ci < line.size(); ++ci) {
      const char c = line[ci];
      if (c == '{') {
        Scope scope;
        scope.cs = cs_active();
        const bool in_function = enclosing_function() != nullptr;
        if (MatchesAny(pending, kNamespaceKw)) {
          scope.kind = ScopeKind::kNamespace;
        } else if (!in_function && MatchesAny(pending, kTypeKw)) {
          scope.kind = ScopeKind::kType;
        } else if (in_function) {
          // Control blocks, lambdas, plain blocks: inherit CS state. A
          // lambda is analyzed as part of its enclosing function — good
          // enough for a heuristic tool.
          scope.kind = ScopeKind::kBlock;
        } else if (pending.find('(') != std::string::npos) {
          scope.kind = ScopeKind::kFunction;
          // Function name: identifier directly before the first '('.
          static const std::regex kName(R"(([A-Za-z_]\w*)\s*\()");
          std::smatch m;
          if (std::regex_search(pending, m, kName) &&
              !MatchesAny(pending, kLambdaIntro)) {
            scope.name = m[1].str();
          }
          // The repo convention: FooLocked() runs with the lock held.
          if (scope.name.size() > 6 &&
              scope.name.rfind("Locked") == scope.name.size() - 6) {
            scope.cs = true;
          }
        } else {
          scope.kind = ScopeKind::kBlock;
        }
        stack.push_back(scope);
        pending.clear();
      } else if (c == '}') {
        if (stack.size() > 1) {
          const Scope closing = stack.back();
          if (closing.kind == ScopeKind::kFunction && !closing.has_fallback) {
            for (int tl : closing.trylock_lines) {
              report(tl, "trylock-no-fallback",
                     "function '" + closing.name +
                         "' TryLock()s but has no bounded blocking fallback "
                         "(Lock() or ContentionLockGuard)");
            }
          }
          if (closing.kind == ScopeKind::kFunction &&
              !closing.has_schedule_point) {
            for (int ll : closing.lock_call_lines) {
              report(ll, "lock-no-schedule-point",
                     "function '" + closing.name +
                         "' takes Lock()/TryLock() but declares no "
                         "BPW_SCHEDULE_POINT; the model checker and stress "
                         "scheduler get no decision point here");
            }
          }
          stack.pop_back();
        }
        pending.clear();
      } else if (c == ';') {
        pending.clear();
      } else {
        pending += c;
      }
    }
    pending += ' ';  // keep tokens on adjacent lines from merging

    // Guard declaration => the rest of this scope is a critical section.
    if (MatchesAny(line, kGuardDecl) && !stack.empty()) {
      stack.back().cs = true;
    }
    // Manual spans: x.Lock(); ... x.Unlock(); within one scope.
    std::smatch m;
    if (std::regex_search(line, m, kManualLock) && !stack.empty()) {
      stack.back().cs = true;
      stack.back().manual_lock = m[1].str();
    } else if (std::regex_search(line, m, kManualUnlock) && !stack.empty()) {
      if (stack.back().manual_lock == m[1].str()) {
        stack.back().cs = false;
        stack.back().manual_lock.clear();
      }
    }
  }
  return findings;
}

}  // namespace

std::vector<Finding> LintSource(const std::string& path,
                                const std::string& source) {
  return LintImpl(path, source, /*honor_allows=*/true);
}

std::vector<Finding> LintSourceUnsuppressed(const std::string& path,
                                            const std::string& source) {
  return LintImpl(path, source, /*honor_allows=*/false);
}

const std::vector<std::string>& LintRuleIds() {
  static const std::vector<std::string> kRules = {
      "critical-section-alloc",  "clock-read-in-critical-section",
      "logging-in-critical-section", "prefetch-in-critical-section",
      "trylock-unchecked",       "trylock-no-fallback",
      "raw-mutex",               "lock-no-schedule-point",
      "post-commit-under-lock",
  };
  return kRules;
}

bool LintFile(const std::string& path, std::vector<Finding>* findings) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::vector<Finding> file_findings = LintSource(path, buf.str());
  findings->insert(findings->end(), file_findings.begin(),
                   file_findings.end());
  return true;
}

std::string FormatFinding(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ':' << finding.line << ": [" << finding.rule << "] "
      << finding.message;
  return out.str();
}

}  // namespace lint
}  // namespace bpw
