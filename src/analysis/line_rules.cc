#include "analysis/line_rules.h"

#include <regex>

namespace bpw {
namespace analysis {

const char* const kLineRules[6] = {
    "prefetch-in-critical-section", "post-commit-under-lock",
    "trylock-unchecked",            "trylock-no-fallback",
    "raw-mutex",                    "lock-no-schedule-point"};

namespace {

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

}  // namespace

bool PathInDir(const std::string& path, const std::string& dir) {
  size_t pos = path.find(dir);
  while (pos != std::string::npos) {
    if (pos == 0 || path[pos - 1] == '/') return true;
    pos = path.find(dir, pos + 1);
  }
  return false;
}

std::vector<Finding> CheckLineRules(const std::string& path,
                                    const LexedSource& src,
                                    bool all_files_lib) {
  std::vector<Finding> findings;

  // Patterns. All run on cleaned lines (no comments, no literals).
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
  static const std::regex kTypeKw(R"(\b(class|struct|enum|union)\s+\w)");
  static const std::regex kNamespaceKw(R"(\bnamespace\b)");
  static const std::regex kLambdaIntro(R"(\[[^\]]*\]\s*\()");
  static const std::regex kRawMutex(
      R"(\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock)\b)");
  static const std::regex kLockCall(R"((\.|->)\s*(Lock|TryLock)\s*\()");
  static const std::regex kSchedulePoint(
      R"(\bBPW_(SCHEDULE_POINT(_OBJ)?|SCHEDULE_YIELD|MC_ACCESS_(READ|WRITE))\s*\()");

  // The path-scoped rules apply to library code only: everything under
  // src/ except src/sync/ (the annotated wrappers and the instrumentation
  // they carry are exactly what the rules push callers toward).
  const bool lib_code =
      all_files_lib ||
      (PathInDir(path, "src/") && !PathInDir(path, "src/sync/"));

  std::vector<Scope> stack(1);
  stack.back().kind = ScopeKind::kNamespace;
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
    findings.push_back(Finding{path, line_index + 1, rule, message});
  };

  for (int li = 0; li < static_cast<int>(src.cleaned_lines.size()); ++li) {
    const std::string& line = src.cleaned_lines[li];

    // ---- Per-line rule checks (before scope updates: a guard declared on
    // this line opens the CS for *subsequent* lines).
    if (cs_active()) {
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
      if (Scope* fn = enclosing_function()) fn->trylock_lines.push_back(li);
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
        if (MatchesAny(line, kLockCall)) fn->lock_call_lines.push_back(li);
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
          // enough for a heuristic rule.
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

}  // namespace analysis
}  // namespace bpw
