#include "analysis/effects.h"

#include <functional>
#include <set>

namespace bpw {
namespace analysis {

namespace {

// The direct-effect name tables. Member calls require an actual `.`/`->`
// receiver, so `insert`/`emplace` can be classified without false-firing
// on declarations.
const std::set<std::string>& AllocFreeCalls() {
  static const std::set<std::string> s = {
      "malloc", "calloc", "realloc", "strdup", "make_unique", "make_shared"};
  return s;
}
const std::set<std::string>& AllocMemberCalls() {
  static const std::set<std::string> s = {
      "reserve",      "resize",  "push_back", "emplace_back",
      "emplace",      "insert",  "try_emplace"};
  return s;
}
const std::set<std::string>& BlockMemberCalls() {
  static const std::set<std::string> s = {"wait", "wait_for", "wait_until",
                                          "join"};
  return s;
}
const std::set<std::string>& BlockAnyCalls() {
  static const std::set<std::string> s = {"sleep_for", "sleep_until", "usleep",
                                          "nanosleep"};
  return s;
}
const std::set<std::string>& IoCalls() {
  static const std::set<std::string> s = {
      "fopen", "fread", "fwrite", "fclose", "fprintf", "fputs", "fgets",
      "fflush", "fscanf", "fseek", "fsync", "pread", "pwrite"};
  return s;
}
// The raw contention-profiler primitives imply clock reads that, unlike
// the BPW_PROF_* macro spellings, cannot compile out at the call site.
const std::set<std::string>& ClockCalls() {
  static const std::set<std::string> s = {
      "NowNanos",       "clock_gettime",     "gettimeofday",   "rdtsc",
      "ProfRecordAcquire", "ProfRecordHold", "ProfWaiterEnter",
      "ProfWaiterExit"};
  return s;
}
const std::set<std::string>& ClockIdents() {
  static const std::set<std::string> s = {"steady_clock", "system_clock",
                                          "high_resolution_clock",
                                          "ScopedProfPhase"};
  return s;
}

bool NextIs(const std::vector<Token>& toks, size_t i, const char* text) {
  return i + 1 < toks.size() && toks[i + 1].kind == TokKind::kPunct &&
         toks[i + 1].text == text;
}

bool IsMemberAccess(const std::vector<Token>& toks, size_t i) {
  return i > 0 && toks[i - 1].kind == TokKind::kPunct &&
         (toks[i - 1].text == "." || toks[i - 1].text == "->");
}

/// 1-based lines carrying a BPW_PROF_* macro token: the sanctioned way to
/// read clocks in a critical section (the reads vanish under -DBPW_PROF=0),
/// so clock classification skips these lines (the exemption is scoped to
/// the line).
std::set<int> ProfExemptLines(const FileModel& fm) {
  std::set<int> lines;
  for (const Token& t : fm.lex.tokens) {
    if (t.kind == TokKind::kIdent && t.text.rfind("BPW_PROF_", 0) == 0) {
      lines.insert(t.line);
    }
  }
  return lines;
}

/// Index of the matching close token, scanning only `open_c`/`close_c`
/// nesting. Returns `limit` when unbalanced.
size_t MatchClose(const std::vector<Token>& toks, size_t open, size_t limit,
                  const char* open_c, const char* close_c) {
  int depth = 0;
  for (size_t i = open; i < limit; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == open_c) ++depth;
    if (toks[i].text == close_c && --depth == 0) return i;
  }
  return limit;
}

std::string TrimCopy(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

}  // namespace

const char* EffectName(unsigned bit) {
  switch (bit) {
    case kEffAlloc:
      return "alloc";
    case kEffBlock:
      return "block";
    case kEffIo:
      return "io";
    case kEffLog:
      return "log";
    case kEffClock:
      return "clock";
    case kEffLoop:
      return "loop";
    case kEffIndirect:
      return "indirect";
  }
  return "?";
}

unsigned EffectBitByName(const std::string& name) {
  for (unsigned bit = 1; bit <= kEffIndirect; bit <<= 1) {
    if (name == EffectName(bit)) return bit;
  }
  return 0;
}

std::vector<EffectSite> ScanDirectEffects(const FileModel& fm,
                                          const FunctionDecl& fn) {
  std::vector<EffectSite> sites;
  if (!fn.has_body) return sites;
  const std::vector<Token>& toks = fm.lex.tokens;
  const std::set<int> prof_lines = ProfExemptLines(fm);

  auto add = [&](unsigned bit, size_t i, const std::string& what) {
    sites.push_back(EffectSite{bit, i, toks[i].line, what});
  };

  for (size_t i = fn.body_begin; i < fn.body_end && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const bool member = IsMemberAccess(toks, i);
    const bool call = NextIs(toks, i, "(");

    if (t.text == "new" && !member) {
      add(kEffAlloc, i, "new");
      continue;
    }
    // make_unique<T>(...) has `<` after the name, not `(`.
    const bool tmpl_call = NextIs(toks, i, "<");
    if (!member && (call || tmpl_call) && AllocFreeCalls().count(t.text)) {
      add(kEffAlloc, i, t.text);
      continue;
    }
    if (member && call && AllocMemberCalls().count(t.text)) {
      add(kEffAlloc, i, "." + t.text + "()");
      continue;
    }
    if (member && call && BlockMemberCalls().count(t.text)) {
      add(kEffBlock, i, "." + t.text + "()");
      continue;
    }
    if (call && BlockAnyCalls().count(t.text)) {
      add(kEffBlock, i, t.text);
      continue;
    }
    if (call && !member && IoCalls().count(t.text)) {
      add(kEffIo, i, t.text);
      continue;
    }
    if (t.text.rfind("BPW_LOG_", 0) == 0) {
      add(kEffLog, i, t.text);
      continue;
    }
    if (prof_lines.count(t.line)) continue;
    if (call && ClockCalls().count(t.text)) {
      add(kEffClock, i, t.text);
      continue;
    }
    if (ClockIdents().count(t.text)) {
      add(kEffClock, i, t.text);
      continue;
    }
  }
  return sites;
}

std::vector<LoopInfo> ScanLoops(const FileModel& fm, const FunctionDecl& fn) {
  std::vector<LoopInfo> loops;
  if (!fn.has_body) return loops;
  const std::vector<Token>& toks = fm.lex.tokens;
  const size_t limit = fn.body_end < toks.size() ? fn.body_end : toks.size();

  std::set<int> bounded_lines;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kIdent && t.text == "BPW_BOUNDED_BY") {
      bounded_lines.insert(t.line);
    }
  }
  auto annotated = [&](int line) {
    return bounded_lines.count(line) != 0 || bounded_lines.count(line - 1) != 0;
  };
  /// Statement body starting at `from`: a `{...}` block or a single
  /// statement up to its `;`. Returns [begin, end) token range.
  auto body_range = [&](size_t from, size_t* begin, size_t* end) {
    if (from < limit && toks[from].kind == TokKind::kPunct &&
        toks[from].text == "{") {
      *begin = from + 1;
      *end = MatchClose(toks, from, limit, "{", "}");
      return;
    }
    *begin = from;
    int paren = 0, brace = 0;
    size_t i = from;
    for (; i < limit; ++i) {
      if (toks[i].kind != TokKind::kPunct) continue;
      if (toks[i].text == "(") ++paren;
      if (toks[i].text == ")") --paren;
      if (toks[i].text == "{") ++brace;
      if (toks[i].text == "}") --brace;
      if (toks[i].text == ";" && paren == 0 && brace <= 0) break;
    }
    *end = i;
  };

  std::set<size_t> do_while_tails;
  for (size_t i = fn.body_begin; i < limit; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;

    if (t.text == "do") {
      LoopInfo li;
      li.kw_tok = i;
      li.line = t.line;
      li.annotated = annotated(t.line);
      body_range(i + 1, &li.body_begin, &li.body_end);
      // The trailing `while (cond)` is part of this loop, not a new one.
      size_t after = li.body_end;
      if (after < limit && toks[after].kind == TokKind::kPunct &&
          toks[after].text == "}") {
        ++after;
      }
      if (after < limit && toks[after].kind == TokKind::kIdent &&
          toks[after].text == "while") {
        do_while_tails.insert(after);
      }
      loops.push_back(li);
      continue;
    }

    if (t.text == "while") {
      if (do_while_tails.count(i)) continue;
      if (!NextIs(toks, i, "(")) continue;
      const size_t close = MatchClose(toks, i + 1, limit, "(", ")");
      LoopInfo li;
      li.kw_tok = i;
      li.line = t.line;
      li.annotated = annotated(t.line);
      body_range(close + 1, &li.body_begin, &li.body_end);
      loops.push_back(li);
      continue;
    }

    if (t.text == "for") {
      if (!NextIs(toks, i, "(")) continue;
      const size_t open = i + 1;
      const size_t close = MatchClose(toks, open, limit, "(", ")");
      LoopInfo li;
      li.kw_tok = i;
      li.line = t.line;
      li.annotated = annotated(t.line);
      // Classify the header: top-level `;` makes it a classic for (bounded
      // iff the condition slot is non-empty); a top-level `:` with no `;`
      // is a range-for (bounded by the container). The lexer emits `::` as
      // one token, so a bare `:` really is a range or ternary colon.
      int depth = 0;
      size_t first_semi = 0, second_semi = 0;
      bool has_colon = false;
      for (size_t j = open + 1; j < close; ++j) {
        if (toks[j].kind != TokKind::kPunct) continue;
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")") --depth;
        if (depth != 0) continue;
        if (toks[j].text == ";") {
          if (!first_semi) {
            first_semi = j;
          } else if (!second_semi) {
            second_semi = j;
          }
        }
        if (toks[j].text == ":") has_colon = true;
      }
      if (first_semi) {
        li.bounded = second_semi > first_semi + 1;
      } else {
        li.bounded = has_colon;
      }
      body_range(close + 1, &li.body_begin, &li.body_end);
      loops.push_back(li);
      continue;
    }
  }
  return loops;
}

std::string EffectMap::Witness(const CallGraph& cg, size_t node,
                               unsigned bit) const {
  std::string out;
  std::set<size_t> seen;
  size_t cur = node;
  for (int depth = 0; depth < 32; ++depth) {
    if (cur >= cg.nodes.size() || cur >= per_node.size()) break;
    if (!out.empty()) out += " -> ";
    out += cg.nodes[cur].qualified;
    if (!seen.insert(cur).second) break;
    const FunctionEffects& fe = per_node[cur];
    auto it = fe.origins.find(bit);
    if (it == fe.origins.end()) break;
    const EffectOrigin& o = it->second;
    if (o.direct) {
      out += " -> " + o.what;
      if (!cg.nodes[cur].defs.empty()) {
        out += " (" + cg.nodes[cur].defs[0].second->path + ":" +
               std::to_string(o.line) + ")";
      }
      break;
    }
    cur = o.callee;
  }
  return out;
}

EffectMap ComputeEffects(const TreeModel& tree, const CallGraph& cg) {
  EffectMap em;
  const size_t n = cg.nodes.size();
  em.per_node.resize(n);
  std::vector<unsigned> direct(n, 0);
  std::vector<char> forced_pure(n, 0);

  for (size_t i = 0; i < n; ++i) {
    const CallNode& node = cg.nodes[i];
    FunctionEffects& fe = em.per_node[i];
    for (const auto& d : node.defs) {
      if (d.second->path.find("src/sync/") != std::string::npos) {
        forced_pure[i] = 1;
      }
    }
    if (forced_pure[i]) continue;

    auto ann_it = tree.function_annotations.find(node.qualified);
    if (ann_it != tree.function_annotations.end()) {
      for (const Annotation& a : ann_it->second) {
        if (a.name != "BPW_HOLD_EFFECT_OK") continue;
        fe.exonerated |=
            EffectBitByName(TrimCopy(a.args.substr(0, a.args.find(','))));
      }
    }

    for (const auto& d : node.defs) {
      for (const EffectSite& s : ScanDirectEffects(*d.second, *d.first)) {
        direct[i] |= s.bit;
        if (!fe.origins.count(s.bit)) {
          fe.origins[s.bit] = EffectOrigin{true, s.what, s.line, 0};
        }
      }
      for (const LoopInfo& l : ScanLoops(*d.second, *d.first)) {
        if (l.bounded || l.annotated) continue;
        direct[i] |= kEffLoop;
        if (!fe.origins.count(kEffLoop)) {
          fe.origins[kEffLoop] = EffectOrigin{true, "unbounded loop", l.line, 0};
        }
      }
    }
    if (!node.indirect_calls.empty()) {
      direct[i] |= kEffIndirect;
      const IndirectCall& ic = node.indirect_calls.front();
      if (!fe.origins.count(kEffIndirect)) {
        fe.origins[kEffIndirect] =
            EffectOrigin{true, "indirect call of " + ic.expr, ic.line, 0};
      }
    }
    direct[i] &= ~fe.exonerated;
  }

  // Tarjan SCC condensation. SCCs are emitted callees-first (an SCC pops
  // only after everything reachable from it has been assigned), so one
  // pass over the emission order sees every external callee summary
  // already final.
  std::vector<int> comp(n, -1), low(n, 0), num(n, -1);
  std::vector<size_t> stack;
  std::vector<char> on_stack(n, 0);
  std::vector<std::vector<size_t>> sccs;
  int counter = 0;
  std::function<void(size_t)> strongconnect = [&](size_t v) {
    num[v] = low[v] = counter++;
    stack.push_back(v);
    on_stack[v] = 1;
    for (const CallEdge& e : cg.nodes[v].edges) {
      const size_t w = e.callee;
      if (num[w] < 0) {
        strongconnect(w);
        if (low[w] < low[v]) low[v] = low[w];
      } else if (on_stack[w]) {
        if (num[w] < low[v]) low[v] = num[w];
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

  for (const std::vector<size_t>& scc : sccs) {
    unsigned u = 0;
    for (size_t m : scc) {
      if (forced_pure[m]) continue;
      u |= direct[m];
      for (const CallEdge& e : cg.nodes[m].edges) {
        if (comp[e.callee] != comp[m]) u |= em.per_node[e.callee].bits;
      }
    }
    for (size_t m : scc) {
      FunctionEffects& fe = em.per_node[m];
      if (forced_pure[m]) {
        fe.bits = 0;
        continue;
      }
      fe.bits = u & ~fe.exonerated;
      // Bits inherited without a direct site need a witness edge: find a
      // callee whose final summary carries the bit.
      for (unsigned bit = 1; bit <= kEffIndirect; bit <<= 1) {
        if (!(fe.bits & bit) || fe.origins.count(bit)) continue;
        for (const CallEdge& e : cg.nodes[m].edges) {
          const FunctionEffects& ce = em.per_node[e.callee];
          const unsigned cb =
              comp[e.callee] == comp[m] ? (u & ~ce.exonerated) : ce.bits;
          if (cb & bit) {
            fe.origins[bit] = EffectOrigin{false, "", e.line, e.callee};
            break;
          }
        }
      }
    }
  }
  return em;
}

}  // namespace analysis
}  // namespace bpw
