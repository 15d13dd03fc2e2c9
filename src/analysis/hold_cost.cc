#include "analysis/hold_cost.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "analysis/resolve.h"

namespace bpw {
namespace analysis {

const char* const kHoldRules[9] = {
    "hold-alloc",          "hold-block",         "hold-io",
    "hold-log",            "hold-clock",         "hold-unbounded-loop",
    "hold-indirect-call",  "cas-retry-unbounded", "cas-retry-blocks"};

namespace {

constexpr double kCostCap = 1e12;

bool WordIn(const std::string& text, const std::string& word) {
  std::string cur;
  for (size_t i = 0; i <= text.size(); ++i) {
    const char c = i < text.size() ? text[i] : ' ';
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_') {
      cur += c;
      continue;
    }
    if (cur == word) return true;
    cur.clear();
  }
  return false;
}

/// Locks whose holds are proven critical sections. Mutex is excluded by
/// design: it is the condvar wrapper and blocks on purpose.
bool IsHoldLockType(const std::string& type_text) {
  return WordIn(type_text, "ContentionLock") || WordIn(type_text, "SpinLock");
}

bool IsBlockingHoldGuard(const std::string& t) {
  return t == "ContentionLockGuard" || t == "SpinLockGuard";
}

bool IsAdoptHoldGuard(const std::string& t) {
  return t == "ContentionLockAdoptGuard";
}

/// Any guard that acquires by blocking, for the CAS no-blocking rule
/// (there MutexGuard counts too: a CAS loop must not wait on anything).
bool IsAnyBlockingGuard(const std::string& t) {
  return t == "ContentionLockGuard" || t == "SpinLockGuard" ||
         t == "MutexGuard";
}

bool IsLibPath(const std::string& path) {
  return path.find("src/") != std::string::npos &&
         path.find("src/sync/") == std::string::npos &&
         path.find("src/analysis/") == std::string::npos;
}

bool NextIs(const std::vector<Token>& toks, size_t i, const char* text) {
  return i + 1 < toks.size() && toks[i + 1].kind == TokKind::kPunct &&
         toks[i + 1].text == text;
}

bool IsControlKeyword(const std::string& t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" ||
         t == "return" || t == "sizeof" || t == "catch" || t == "do" ||
         t == "else";
}

/// Loop-nesting multiplier per token of a definition: 8 per enclosing
/// loop body, capped at 512 (deeper nesting adds no ranking signal).
std::vector<double> NestingMult(const FileModel& fm, const FunctionDecl& fn) {
  const size_t n = fm.lex.tokens.size();
  std::vector<int> nest(n, 0);
  for (const LoopInfo& l : ScanLoops(fm, fn)) {
    for (size_t i = l.body_begin; i < l.body_end && i < n; ++i) ++nest[i];
  }
  std::vector<double> mult(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    mult[i] = nest[i] >= 3 ? 512.0 : (nest[i] == 2 ? 64.0
                                                   : (nest[i] == 1 ? 8.0 : 1.0));
  }
  return mult;
}

std::vector<std::string> SplitArgs(const std::string& args) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (char c : args) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
      continue;
    }
    if (c != ' ') cur += c;
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

const char* BitNoun(unsigned bit) {
  switch (bit) {
    case kEffAlloc:
      return "allocation";
    case kEffBlock:
      return "blocking call";
    case kEffIo:
      return "IO";
    case kEffLog:
      return "logging";
    case kEffClock:
      return "clock read";
  }
  return "effect";
}

const char* BitVerb(unsigned bit) {
  switch (bit) {
    case kEffAlloc:
      return "allocate";
    case kEffBlock:
      return "block";
    case kEffIo:
      return "perform IO";
    case kEffLog:
      return "log";
    case kEffClock:
      return "read the clock";
  }
  return "?";
}

const char* BitRule(unsigned bit) {
  switch (bit) {
    case kEffAlloc:
      return "hold-alloc";
    case kEffBlock:
      return "hold-block";
    case kEffIo:
      return "hold-io";
    case kEffLog:
      return "hold-log";
    case kEffClock:
      return "hold-clock";
    case kEffLoop:
      return "hold-unbounded-loop";
    case kEffIndirect:
      return "hold-indirect-call";
  }
  return "?";
}

class HoldChecker {
 public:
  HoldChecker(const TreeModel& tree, const CallGraph& cg,
              const EffectMap& effects, bool all_files_lib)
      : tree_(tree), cg_(cg), effects_(effects),
        all_files_lib_(all_files_lib) {}

  HoldReport Run() {
    CollectLocks();
    CollectProfLabels();
    ComputeCosts();
    for (const FileModel& fm : tree_.files) {
      if (!all_files_lib_ && !IsLibPath(fm.path)) continue;
      for (const FunctionDecl& fn : fm.functions) {
        if (!fn.has_body) continue;
        ScanFunction(fm, fn);
        RunCasRules(fm, fn);
      }
    }
    std::sort(report_.sites.begin(), report_.sites.end(),
              [](const HoldSite& a, const HoldSite& b) {
                return a.cost > b.cost;
              });
    return std::move(report_);
  }

 private:
  struct HoldLock {
    std::string lock_class;
    std::string prof_label;
  };

  void CollectLocks() {
    auto add = [&](const FieldDecl& f) {
      if (!IsHoldLockType(f.type_text)) return;
      HoldLock d;
      d.lock_class = f.owner.empty() ? "::" + f.name : f.owner + "::" + f.name;
      locks_[&f] = d;
    };
    for (const FileModel& fm : tree_.files) {
      for (const TypeDecl& t : fm.types) {
        for (const FieldDecl& f : t.fields) add(f);
      }
      for (const FieldDecl& f : fm.globals) add(f);
    }
  }

  /// Finds every `X.BindProfSite(BPW_PROF_SITE("label"))` — including the
  /// two-step spelling through a local `ProfSiteId site = BPW_PROF_SITE(...)`
  /// — and records the label on the lock field X resolves to.
  void CollectProfLabels() {
    for (const FileModel& fm : tree_.files) {
      const std::vector<Token>& toks = fm.lex.tokens;
      for (const FunctionDecl& fn : fm.functions) {
        if (!fn.has_body) continue;
        // local site variable -> label
        std::map<std::string, std::string> site_vars;
        for (size_t i = fn.body_begin;
             i + 3 < fn.body_end && i + 3 < toks.size(); ++i) {
          if (toks[i].kind != TokKind::kIdent ||
              toks[i].text != "BPW_PROF_SITE" || !NextIs(toks, i, "(")) {
            continue;
          }
          if (toks[i + 2].kind != TokKind::kString) continue;
          const std::string label = toks[i + 2].text;
          // `name = BPW_PROF_SITE(...)` binds the label to the local.
          if (i >= 2 && toks[i - 1].kind == TokKind::kPunct &&
              toks[i - 1].text == "=" && toks[i - 2].kind == TokKind::kIdent) {
            site_vars[toks[i - 2].text] = label;
          }
        }
        for (size_t i = fn.body_begin; i < fn.body_end && i < toks.size();
             ++i) {
          if (toks[i].kind != TokKind::kIdent ||
              toks[i].text != "BindProfSite" || !NextIs(toks, i, "(") ||
              i < 2 || toks[i - 1].kind != TokKind::kPunct ||
              (toks[i - 1].text != "." && toks[i - 1].text != "->") ||
              toks[i - 2].kind != TokKind::kIdent) {
            continue;
          }
          std::string label;
          if (i + 2 < toks.size() && toks[i + 2].kind == TokKind::kIdent) {
            if (toks[i + 2].text == "BPW_PROF_SITE" && i + 4 < toks.size() &&
                toks[i + 4].kind == TokKind::kString) {
              label = toks[i + 4].text;
            } else {
              auto it = site_vars.find(toks[i + 2].text);
              if (it != site_vars.end()) label = it->second;
            }
          }
          if (label.empty()) continue;
          const std::string member = toks[i - 2].text;
          std::string receiver;
          if (i >= 4 && toks[i - 3].kind == TokKind::kPunct &&
              (toks[i - 3].text == "." || toks[i - 3].text == "->") &&
              toks[i - 4].kind == TokKind::kIdent) {
            receiver = toks[i - 4].text;
          }
          const FieldDecl* f =
              ResolveFieldRef(tree_, &fn, fn.qualifier, receiver, member);
          auto it = f != nullptr ? locks_.find(f) : locks_.end();
          if (it != locks_.end()) it->second.prof_label = label;
        }
      }
    }
  }

  // ---- static cost model -------------------------------------------------

  /// Direct weight of one definition: 1 per statement (`;`), 2 per
  /// call-shaped token, both scaled by the loop-nesting multiplier.
  double DirectWeight(const FileModel& fm, const FunctionDecl& fn,
                      const std::vector<double>& mult) {
    const std::vector<Token>& toks = fm.lex.tokens;
    double w = 0;
    for (size_t i = fn.body_begin; i < fn.body_end && i < toks.size(); ++i) {
      if (toks[i].kind == TokKind::kPunct && toks[i].text == ";") {
        w += mult[i];
      } else if (toks[i].kind == TokKind::kIdent && NextIs(toks, i, "(") &&
                 !IsControlKeyword(toks[i].text)) {
        w += 2 * mult[i];
      }
    }
    return std::min(w, kCostCap);
  }

  void ComputeCosts() {
    const size_t n = cg_.nodes.size();
    std::vector<double> direct(n, 0.0);
    line_mult_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      for (const auto& d : cg_.nodes[i].defs) {
        const std::vector<double> mult = NestingMult(*d.second, *d.first);
        direct[i] += DirectWeight(*d.second, *d.first, mult);
        const std::vector<Token>& toks = d.second->lex.tokens;
        for (size_t t = d.first->body_begin;
             t < d.first->body_end && t < toks.size(); ++t) {
          double& m = line_mult_[i][toks[t].line];
          if (mult[t] > m) m = mult[t];
        }
      }
    }

    // Reverse-topological totals via Tarjan SCC (emission order is
    // callees-first). A recursion cycle doubles its combined weight once:
    // the model only needs recursion to rank above a single pass, not to
    // guess depth.
    std::vector<int> comp(n, -1), low(n, 0), num(n, -1);
    std::vector<size_t> stack;
    std::vector<char> on_stack(n, 0);
    std::vector<std::vector<size_t>> sccs;
    int counter = 0;
    std::function<void(size_t)> strongconnect = [&](size_t v) {
      num[v] = low[v] = counter++;
      stack.push_back(v);
      on_stack[v] = 1;
      for (const CallEdge& e : cg_.nodes[v].edges) {
        if (num[e.callee] < 0) {
          strongconnect(e.callee);
          if (low[e.callee] < low[v]) low[v] = low[e.callee];
        } else if (on_stack[e.callee]) {
          if (num[e.callee] < low[v]) low[v] = num[e.callee];
        }
      }
      if (low[v] == num[v]) {
        std::vector<size_t> scc;
        for (;;) {
          const size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          comp[w] = static_cast<int>(sccs.size());
          scc.push_back(w);
          if (w == v) break;
        }
        sccs.push_back(std::move(scc));
      }
    };
    for (size_t v = 0; v < n; ++v) {
      if (num[v] < 0) strongconnect(v);
    }

    totals_.assign(n, 0.0);
    for (const std::vector<size_t>& scc : sccs) {
      double sum = 0;
      for (size_t m : scc) {
        sum += direct[m];
        // Per call-site line: sequential callees add, a virtual fan-out
        // contributes the costliest override (the dispatch takes ONE of
        // them, not all).
        std::map<int, std::pair<double, double>> per_line;  // {sum, vmax}
        for (const CallEdge& e : cg_.nodes[m].edges) {
          if (comp[e.callee] == comp[m]) continue;
          auto& slot = per_line[e.line];
          if (e.virtual_dispatch) {
            if (totals_[e.callee] > slot.second) slot.second = totals_[e.callee];
          } else {
            slot.first += totals_[e.callee];
          }
        }
        for (const auto& entry : per_line) {
          double lm = 1.0;
          auto lit = line_mult_[m].find(entry.first);
          if (lit != line_mult_[m].end() && lit->second > lm) lm = lit->second;
          sum += lm * (entry.second.first + entry.second.second);
        }
      }
      if (scc.size() > 1) sum *= 2;
      sum = std::min(sum, kCostCap);
      for (size_t m : scc) totals_[m] = sum;
    }

    // Per-node, per-line transitive callee contribution, consumed once per
    // line while accumulating hold-region costs.
    call_contrib_.resize(n);
    for (size_t m = 0; m < n; ++m) {
      std::map<int, std::pair<double, double>> per_line;
      for (const CallEdge& e : cg_.nodes[m].edges) {
        auto& slot = per_line[e.line];
        if (e.virtual_dispatch) {
          if (totals_[e.callee] > slot.second) slot.second = totals_[e.callee];
        } else {
          slot.first += totals_[e.callee];
        }
      }
      for (const auto& entry : per_line) {
        double lm = 1.0;
        auto lit = line_mult_[m].find(entry.first);
        if (lit != line_mult_[m].end() && lit->second > lm) lm = lit->second;
        call_contrib_[m][entry.first] =
            lm * (entry.second.first + entry.second.second);
      }
    }
  }

  // ---- lock resolution ---------------------------------------------------

  const HoldLock* ResolveLock(const FunctionDecl* fn,
                              const std::string& context,
                              const std::string& receiver,
                              const std::string& member) const {
    const FieldDecl* f = ResolveFieldRef(tree_, fn, context, receiver, member);
    if (f == nullptr) {
      // Same unique-lock fallback the lock-order layer uses: a name that
      // is hold-lock-typed everywhere it appears and always means one lock
      // resolves.
      const FieldDecl* found = nullptr;
      std::set<std::string> classes;
      auto range = tree_.fields_by_name.equal_range(member);
      for (auto it = range.first; it != range.second; ++it) {
        auto lf = locks_.find(it->second);
        if (lf == locks_.end()) return nullptr;
        classes.insert(lf->second.lock_class);
        found = it->second;
      }
      if (found == nullptr || classes.size() != 1) return nullptr;
      f = found;
    }
    auto it = locks_.find(f);
    return it == locks_.end() ? nullptr : &it->second;
  }

  /// First constructor argument starting at '(' -> lock + spelled text.
  const HoldLock* ResolveArgExpr(const std::vector<Token>& toks, size_t open,
                                 const FunctionDecl* fn,
                                 std::string* spelled) const {
    int depth = 0;
    std::string member, receiver, text;
    bool prev_was_sep = false;
    for (size_t i = open; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(") {
          ++depth;
          continue;
        }
        if (t.text == ")" && --depth == 0) break;
        if (t.text == "," && depth == 1) break;
        prev_was_sep = t.text == "." || t.text == "->";
        if (depth == 1) text += t.text;
        continue;
      }
      if (depth == 1) text += t.text;
      if (t.kind == TokKind::kIdent) {
        receiver = prev_was_sep ? member : "";
        member = t.text;
        prev_was_sep = false;
      }
    }
    if (member.empty()) return nullptr;
    *spelled = text;
    return ResolveLock(fn, fn != nullptr ? fn->qualifier : "", receiver,
                       member);
  }

  // ---- the scan ----------------------------------------------------------

  void AddFinding(const FileModel& fm, int line, const std::string& rule,
                  const std::string& message) {
    const std::string key =
        fm.path + ":" + std::to_string(line) + ":" + rule;
    if (!finding_keys_.insert(key).second) return;
    report_.findings.push_back({fm.path, line, rule, message});
  }

  size_t NodeOf(const FunctionDecl& fn) const {
    auto it = cg_.index.find(fn.qualified);
    return it == cg_.index.end() ? cg_.nodes.size() : it->second;
  }

  void ScanFunction(const FileModel& fm, const FunctionDecl& fn) {
    const std::vector<Token>& toks = fm.lex.tokens;
    if (fn.body_begin >= fn.body_end || fn.body_end > toks.size()) return;
    const size_t node = NodeOf(fn);
    const unsigned exonerated =
        node < effects_.per_node.size() ? effects_.per_node[node].exonerated
                                        : 0;

    struct Active {
      size_t site = 0;  ///< index into report_.sites
      int depth = 0;
    };
    std::vector<Active> active;
    auto open_hold = [&](const HoldLock* lock, const std::string& lock_text,
                         const std::string& kind, int line, int depth) {
      HoldSite s;
      s.function = fn.qualified;
      s.lock_text = lock_text;
      if (lock != nullptr) {
        s.lock_class = lock->lock_class;
        s.prof_label = lock->prof_label;
      } else {
        s.lock_class = lock_text;
      }
      s.file = fm.path;
      s.line = line;
      s.kind = kind;
      active.push_back(Active{report_.sites.size(), depth});
      report_.sites.push_back(std::move(s));
    };
    auto lock_display = [&]() -> std::string {
      const HoldSite& s = report_.sites[active.back().site];
      return s.lock_class.empty() ? s.lock_text : s.lock_class;
    };

    // Whole-body holds: REQUIRES on a lock member, REQUIRES(this)
    // capability functions, and the Locked() suffix convention (bound to
    // the enclosing class's unique hold lock).
    auto ann_it = tree_.function_annotations.find(fn.qualified);
    if (ann_it != tree_.function_annotations.end()) {
      for (const Annotation& a : ann_it->second) {
        if (a.name != "BPW_REQUIRES" && a.name != "BPW_RELEASE") continue;
        for (const std::string& arg : SplitArgs(a.args)) {
          if (arg == "this") {
            open_hold(nullptr, fn.qualifier.empty() ? "this"
                                                    : fn.qualifier + "::this",
                      "capability", fn.line, -1);
            continue;
          }
          std::string t = arg;
          if (!t.empty() && t[0] == '!') continue;
          if (!t.empty() && t[0] == '&') t = t.substr(1);
          const MemberRef ref = SplitMemberText(t);
          const HoldLock* lock =
              ResolveLock(&fn, fn.qualifier, ref.receiver, ref.member);
          if (lock != nullptr) open_hold(lock, t, "requires", fn.line, -1);
        }
      }
    }
    if (active.empty() && fn.LockedSuffix() && !fn.qualifier.empty()) {
      // FooLocked() runs under the class's lock; bind it when the class
      // owns exactly one hold-lock field.
      const FieldDecl* unique = nullptr;
      int count = 0;
      auto range = tree_.types_by_name.equal_range(fn.qualifier);
      for (auto it = range.first; it != range.second; ++it) {
        for (const FieldDecl& f : it->second->fields) {
          if (locks_.count(&f) == 0) continue;
          ++count;
          unique = &f;
        }
      }
      if (count == 1) {
        open_hold(&locks_.at(unique), unique->name, "locked-suffix", fn.line,
                  -1);
      }
    }

    const std::vector<double> mult = NestingMult(fm, fn);
    std::map<int, double> contrib =
        node < call_contrib_.size() ? call_contrib_[node]
                                    : std::map<int, double>();
    std::map<size_t, EffectSite> direct_sites;
    for (const EffectSite& s : ScanDirectEffects(fm, fn)) {
      direct_sites.emplace(s.tok, s);
    }
    std::map<size_t, const LoopInfo*> loops_by_kw;
    const std::vector<LoopInfo> loops = ScanLoops(fm, fn);
    for (const LoopInfo& l : loops) loops_by_kw[l.kw_tok] = &l;
    std::multimap<int, const CallEdge*> edges_by_line;
    std::multimap<int, const IndirectCall*> indirect_by_line;
    if (node < cg_.nodes.size()) {
      for (const CallEdge& e : cg_.nodes[node].edges) {
        edges_by_line.emplace(e.line, &e);
      }
      for (const IndirectCall& ic : cg_.nodes[node].indirect_calls) {
        indirect_by_line.emplace(ic.line, &ic);
      }
    }

    auto charge = [&](double w) {
      for (const Active& a : active) {
        double& c = report_.sites[a.site].cost;
        c = std::min(c + w, kCostCap);
      }
    };

    int depth = 0;
    for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "{") ++depth;
        if (t.text == "}") {
          --depth;
          active.erase(std::remove_if(active.begin(), active.end(),
                                      [&](const Active& a) {
                                        return a.depth > depth;
                                      }),
                       active.end());
        }
        if (t.text == ";") charge(mult[i]);
        continue;
      }
      if (t.kind != TokKind::kIdent) continue;

      // Hold open/close, mirroring the lock-order layer's scanner.
      if ((IsBlockingHoldGuard(t.text) || IsAdoptHoldGuard(t.text)) &&
          i + 2 < fn.body_end && toks[i + 1].kind == TokKind::kIdent &&
          toks[i + 2].kind == TokKind::kPunct && toks[i + 2].text == "(") {
        std::string spelled;
        const HoldLock* lock = ResolveArgExpr(toks, i + 2, &fn, &spelled);
        if (lock != nullptr) {
          open_hold(lock, spelled, IsAdoptHoldGuard(t.text) ? "adopt" : "guard",
                    t.line, depth);
        }
        continue;
      }
      const bool is_lock = t.text == "Lock" || t.text == "lock";
      const bool is_try = t.text == "TryLock" || t.text == "try_lock";
      const bool is_unlock = t.text == "Unlock" || t.text == "unlock";
      if ((is_lock || is_try || is_unlock) && i >= 2 && i + 1 < fn.body_end &&
          toks[i + 1].kind == TokKind::kPunct && toks[i + 1].text == "(" &&
          toks[i - 1].kind == TokKind::kPunct &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
          toks[i - 2].kind == TokKind::kIdent) {
        const std::string member = toks[i - 2].text;
        std::string receiver;
        if (i >= 4 && toks[i - 3].kind == TokKind::kPunct &&
            (toks[i - 3].text == "." || toks[i - 3].text == "->") &&
            toks[i - 4].kind == TokKind::kIdent) {
          receiver = toks[i - 4].text;
        }
        const HoldLock* lock =
            ResolveLock(&fn, fn.qualifier, receiver, member);
        if (lock != nullptr) {
          const std::string spelled =
              receiver.empty() ? member : receiver + "." + member;
          if (is_unlock) {
            active.erase(
                std::remove_if(active.begin(), active.end(),
                               [&](const Active& a) {
                                 const HoldSite& s = report_.sites[a.site];
                                 return s.lock_text == spelled &&
                                        (s.kind == "manual" ||
                                         s.kind == "trylock");
                               }),
                active.end());
          } else {
            open_hold(lock, spelled, is_try ? "trylock" : "manual", t.line,
                      is_try ? depth + 1 : depth);
          }
          continue;
        }
      }

      // Cost: calls charge 2 plus the callee's transitive total, once per
      // call-site line.
      const bool call_shaped = NextIs(toks, i, "(") &&
                               !IsControlKeyword(t.text);
      if (call_shaped) {
        double w = 2 * mult[i];
        auto cit = contrib.find(t.line);
        if (cit != contrib.end()) {
          w += cit->second;
          contrib.erase(cit);
        }
        charge(w);
      }

      if (active.empty()) continue;

      // Proof obligations inside the hold region.
      auto ds = direct_sites.find(i);
      if (ds != direct_sites.end() && !(ds->second.bit & exonerated)) {
        const unsigned bit = ds->second.bit;
        AddFinding(fm, t.line, BitRule(bit),
                   std::string(BitNoun(bit)) + " under '" + lock_display() +
                       "': " + ds->second.what + " in " + fn.qualified);
      }
      auto lp = loops_by_kw.find(i);
      if (lp != loops_by_kw.end() && !lp->second->bounded &&
          !lp->second->annotated && !(exonerated & kEffLoop)) {
        AddFinding(fm, t.line, "hold-unbounded-loop",
                   "unbounded loop under '" + lock_display() + "' in " +
                       fn.qualified +
                       " (bound it structurally or annotate BPW_BOUNDED_BY)");
      }
      if (call_shaped) {
        auto er = edges_by_line.equal_range(t.line);
        for (auto it = er.first; it != er.second; ++it) {
          const CallEdge& e = *it->second;
          unsigned bits = effects_.BitsOf(e.callee) & ~exonerated;
          for (unsigned bit = 1; bit <= kEffIndirect; bit <<= 1) {
            if (!(bits & bit)) continue;
            const std::string witness = effects_.Witness(cg_, e.callee, bit);
            if (bit == kEffIndirect) {
              AddFinding(fm, t.line, "hold-indirect-call",
                         "call under '" + lock_display() +
                             "' reaches an indirect call (targets unknown): " +
                             witness);
            } else if (bit == kEffLoop) {
              AddFinding(fm, t.line, "hold-unbounded-loop",
                         "call under '" + lock_display() +
                             "' reaches an unbounded loop: " + witness);
            } else {
              AddFinding(fm, t.line, BitRule(bit),
                         std::string("call under '") + lock_display() +
                             "' may " + BitVerb(bit) + ": " + witness);
            }
          }
        }
        auto ir = indirect_by_line.equal_range(t.line);
        for (auto it = ir.first; it != ir.second; ++it) {
          if (exonerated & kEffIndirect) continue;
          AddFinding(fm, t.line, "hold-indirect-call",
                     "indirect call of '" + it->second->expr + "' under '" +
                         lock_display() + "' in " + fn.qualified +
                         " (targets unknown — may do anything)");
        }
      }
    }
  }

  // ---- CAS retry rules ---------------------------------------------------

  void RunCasRules(const FileModel& fm, const FunctionDecl& fn) {
    const std::vector<Token>& toks = fm.lex.tokens;
    const std::vector<LoopInfo> loops = ScanLoops(fm, fn);
    for (size_t i = fn.body_begin; i < fn.body_end && i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      if (toks[i].text != "compare_exchange_weak" &&
          toks[i].text != "compare_exchange_strong") {
        continue;
      }
      // Innermost loop containing the CAS; a CAS outside any loop is a
      // single attempt and needs no bound.
      const LoopInfo* inner = nullptr;
      for (const LoopInfo& l : loops) {
        if (i < l.body_begin || i >= l.body_end) continue;
        if (inner == nullptr ||
            l.body_end - l.body_begin < inner->body_end - inner->body_begin) {
          inner = &l;
        }
      }
      if (inner == nullptr) continue;
      if (!inner->bounded && !inner->annotated) {
        AddFinding(fm, toks[i].line, "cas-retry-unbounded",
                   "CAS retry loop in " + fn.qualified +
                       " has no bound; annotate BPW_BOUNDED_BY with the "
                       "bounding argument or bound the loop structurally");
      }
      for (size_t j = inner->body_begin;
           j < inner->body_end && j < toks.size(); ++j) {
        if (toks[j].kind != TokKind::kIdent) continue;
        const bool guard = IsAnyBlockingGuard(toks[j].text) &&
                           j + 2 < toks.size() &&
                           toks[j + 1].kind == TokKind::kIdent &&
                           toks[j + 2].kind == TokKind::kPunct &&
                           toks[j + 2].text == "(";
        const bool manual =
            (toks[j].text == "Lock" || toks[j].text == "lock") && j >= 1 &&
            toks[j - 1].kind == TokKind::kPunct &&
            (toks[j - 1].text == "." || toks[j - 1].text == "->") &&
            NextIs(toks, j, "(");
        if (guard || manual) {
          AddFinding(fm, toks[j].line, "cas-retry-blocks",
                     "CAS retry loop in " + fn.qualified +
                         " acquires a blocking lock; a lock-free retry path "
                         "must stay lock-free (use TryLock + fallback "
                         "outside the loop)");
        }
      }
    }
  }

  const TreeModel& tree_;
  const CallGraph& cg_;
  const EffectMap& effects_;
  const bool all_files_lib_;
  HoldReport report_;
  std::set<std::string> finding_keys_;
  std::map<const FieldDecl*, HoldLock> locks_;
  std::vector<double> totals_;
  std::vector<std::map<int, double>> line_mult_;
  std::vector<std::map<int, double>> call_contrib_;
};

}  // namespace

HoldReport CheckHolds(const TreeModel& tree, const CallGraph& cg,
                      const EffectMap& effects, bool all_files_lib) {
  return HoldChecker(tree, cg, effects, all_files_lib).Run();
}

std::string HoldCostsToJson(const HoldReport& report) {
  auto esc = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  std::string out = "{\n  \"sites\": [\n";
  bool first = true;
  for (const HoldSite& s : report.sites) {
    if (!first) out += ",\n";
    first = false;
    char num[32];
    std::snprintf(num, sizeof(num), "%.1f", s.cost);
    out += "    {\"label\": \"" + esc(s.prof_label) + "\", \"lock\": \"" +
           esc(s.lock_text) + "\", \"lock_class\": \"" + esc(s.lock_class) +
           "\", \"file\": \"" + esc(s.file) +
           "\", \"line\": " + std::to_string(s.line) + ", \"function\": \"" +
           esc(s.function) + "\", \"kind\": \"" + esc(s.kind) +
           "\", \"weight\": " + num + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace analysis
}  // namespace bpw
