#include "analysis/lock_graph.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "analysis/resolve.h"

namespace bpw {
namespace analysis {

namespace {

bool IsLockTypeWord(const std::string& w) {
  return w == "ContentionLock" || w == "SpinLock" || w == "Mutex";
}

/// The declarator text names a lock type as a whole word.
bool IsLockTyped(const std::string& type_text) {
  std::string word;
  for (size_t i = 0; i <= type_text.size(); ++i) {
    const char c = i < type_text.size() ? type_text[i] : ' ';
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_') {
      word += c;
      continue;
    }
    if (IsLockTypeWord(word)) return true;
    word.clear();
  }
  return false;
}

bool IsBlockingGuard(const std::string& t) {
  return t == "ContentionLockGuard" || t == "MutexGuard" ||
         t == "SpinLockGuard";
}

bool IsAdoptGuard(const std::string& t) {
  return t == "ContentionLockAdoptGuard";
}

struct Held {
  size_t lock = 0;  // index into graph.locks
  int depth = 0;
};

class GraphBuilder {
 public:
  explicit GraphBuilder(const TreeModel& tree) : tree_(tree) {}

  LockGraph Build() {
    CollectLocks();
    CollectAcquireFunctions();
    for (const FileModel& fm : tree_.files) {
      for (const FunctionDecl& fn : fm.functions) {
        if (fn.has_body) ScanFunction(fm, fn);
      }
    }
    RunCycleRule();
    return std::move(graph_);
  }

 private:
  void CollectLocks() {
    auto add = [&](const FieldDecl& f) {
      if (!IsLockTyped(f.type_text)) return;
      LockDecl d;
      d.field = &f;
      d.id = f.owner.empty() ? "::" + f.name : f.owner + "::" + f.name;
      by_field_[&f] = graph_.locks.size();
      graph_.locks.push_back(d);
    };
    for (const FileModel& fm : tree_.files) {
      for (const TypeDecl& t : fm.types) {
        for (const FieldDecl& f : t.fields) add(f);
      }
      for (const FieldDecl& f : fm.globals) add(f);
    }
  }

  /// Functions annotated BPW_ACQUIRE acquire their capability on behalf of
  /// the caller; a call to one while holding a lock is an edge. Indexed by
  /// unqualified name, used only when unambiguous.
  void CollectAcquireFunctions() {
    for (const auto& entry : tree_.function_annotations) {
      const std::string& qualified = entry.first;
      std::string args;
      for (const Annotation& a : entry.second) {
        if (a.name != "BPW_ACQUIRE" || a.args.empty()) continue;
        if (!args.empty()) args += ",";
        args += a.args;
      }
      if (args.empty()) continue;
      const size_t cut = qualified.rfind("::");
      const std::string name =
          cut == std::string::npos ? qualified : qualified.substr(cut + 2);
      if (IsBlockingGuard(name) || IsAdoptGuard(name) || IsLockTypeWord(name)) {
        continue;  // guard ctors are recognised structurally
      }
      const std::string context =
          cut == std::string::npos ? "" : qualified.substr(0, cut);
      auto& slot = acquire_fns_[name];
      slot.push_back({context, args});
    }
  }

  bool ResolveLock(const FunctionDecl* fn, const std::string& context,
                   const std::string& receiver, const std::string& member,
                   size_t* out) const {
    const FieldDecl* f =
        ResolveFieldRef(tree_, fn, context, receiver, member);
    if (f == nullptr) {
      // ResolveMember refuses ambiguous names; for locks, a name that is
      // lock-typed everywhere it appears and names ONE lock is still
      // usable.
      const FieldDecl* found = nullptr;
      std::set<std::string> ids;
      auto range = tree_.fields_by_name.equal_range(member);
      for (auto it = range.first; it != range.second; ++it) {
        auto bf = by_field_.find(it->second);
        if (bf == by_field_.end()) return false;
        ids.insert(graph_.locks[bf->second].id);
        found = it->second;
      }
      if (found == nullptr || ids.size() != 1) return false;
      f = found;
    }
    auto it = by_field_.find(f);
    if (it == by_field_.end()) return false;
    *out = it->second;
    return true;
  }

  /// Resolves a REQUIRES/RELEASE/ACQUIRE annotation argument like
  /// "shard.lock" or "lock_".
  bool ResolveLockText(const FunctionDecl* fn, const std::string& context,
                       const std::string& text, size_t* out) const {
    std::string t = text;
    if (!t.empty() && t[0] == '!') return false;  // negative capability
    if (!t.empty() && t[0] == '&') t = t.substr(1);
    const MemberRef ref = SplitMemberText(t);
    return ResolveLock(fn, context, ref.receiver, ref.member, out);
  }

  static std::vector<std::string> SplitArgs(const std::string& args) {
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

  void AddAcquisition(std::vector<Held>* held, size_t lock, bool try_edge,
                      const std::string& file, int line,
                      const std::string& note, int depth) {
    for (const Held& h : *held) {
      // Self edges are kept: two instances of one lock field (two
      // elements of a lock array) acquired together is a deadlock shape.
      LockEdge e;
      e.from = graph_.locks[h.lock].id;
      e.to = graph_.locks[lock].id;
      e.file = file;
      e.line = line;
      e.try_edge = try_edge;
      e.note = note;
      graph_.edges.push_back(std::move(e));
    }
    held->push_back({lock, depth});
  }

  void ScanFunction(const FileModel& fm, const FunctionDecl& fn) {
    const std::vector<Token>& toks = fm.lex.tokens;
    if (fn.body_begin >= fn.body_end || fn.body_end > toks.size()) return;
    std::vector<Held> held;
    // Entry-held set from REQUIRES (caller holds) and RELEASE (entered
    // holding, released inside — still held at the top).
    auto ann_it = tree_.function_annotations.find(fn.qualified);
    if (ann_it != tree_.function_annotations.end()) {
      for (const Annotation& a : ann_it->second) {
        if (a.name != "BPW_REQUIRES" && a.name != "BPW_RELEASE") continue;
        for (const std::string& arg : SplitArgs(a.args)) {
          size_t lock;
          if (ResolveLockText(&fn, fn.qualifier, arg, &lock)) {
            held.push_back({lock, -1});
          }
        }
      }
    }
    int depth = 0;
    for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "{") ++depth;
        if (t.text == "}") {
          --depth;
          held.erase(std::remove_if(held.begin(), held.end(),
                                    [&](const Held& h) {
                                      return h.depth > depth;
                                    }),
                     held.end());
        }
        continue;
      }
      if (t.kind != TokKind::kIdent) continue;
      // Guard construction: `Guard name(expr[, ...])`.
      if ((IsBlockingGuard(t.text) || IsAdoptGuard(t.text)) &&
          i + 2 < fn.body_end && toks[i + 1].kind == TokKind::kIdent &&
          toks[i + 2].kind == TokKind::kPunct && toks[i + 2].text == "(") {
        size_t lock;
        if (ResolveArgExpr(toks, i + 2, &fn, &lock)) {
          if (IsAdoptGuard(t.text)) {
            held.push_back({lock, depth});
          } else {
            AddAcquisition(&held, lock, /*try_edge=*/false, fm.path, t.line,
                           fn.qualified + " guard", depth);
          }
        }
        continue;
      }
      // Manual calls: `expr.Lock()` / `.TryLock()` / `.Unlock()` and the
      // lowercase spellings.
      const bool is_lock = t.text == "Lock" || t.text == "lock";
      const bool is_try = t.text == "TryLock" || t.text == "try_lock";
      const bool is_unlock = t.text == "Unlock" || t.text == "unlock";
      if ((is_lock || is_try || is_unlock) && i >= 2 &&
          i + 1 < fn.body_end && toks[i + 1].kind == TokKind::kPunct &&
          toks[i + 1].text == "(" && toks[i - 1].kind == TokKind::kPunct &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
          toks[i - 2].kind == TokKind::kIdent) {
        const std::string member = toks[i - 2].text;
        std::string receiver;
        if (i >= 4 && toks[i - 3].kind == TokKind::kPunct &&
            (toks[i - 3].text == "." || toks[i - 3].text == "->") &&
            toks[i - 4].kind == TokKind::kIdent) {
          receiver = toks[i - 4].text;
        }
        size_t lock;
        if (!ResolveLock(&fn, fn.qualifier, receiver, member, &lock)) {
          continue;
        }
        if (is_unlock) {
          held.erase(std::remove_if(held.begin(), held.end(),
                                    [&](const Held& h) {
                                      return h.lock == lock;
                                    }),
                     held.end());
          continue;
        }
        // A TryLock in an `if` condition holds the lock only inside the
        // guarded block, which opens at depth+1; scoping the held entry
        // there under-approximates the `bool ok = TryLock()` spelling
        // (degrades by omission) but never leaks a try-hold past its
        // branch into the blocking fallback.
        AddAcquisition(&held, lock, is_try, fm.path, t.line,
                       fn.qualified + (is_try ? " TryLock" : " Lock"),
                       is_try ? depth + 1 : depth);
        continue;
      }
      // Call to a BPW_ACQUIRE-annotated function while holding locks.
      if (!held.empty() && i + 1 < fn.body_end &&
          toks[i + 1].kind == TokKind::kPunct && toks[i + 1].text == "(") {
        auto fit = acquire_fns_.find(t.text);
        if (fit != acquire_fns_.end() && fit->second.size() == 1 &&
            fit->second[0].first != fn.qualifier) {
          for (const std::string& arg : SplitArgs(fit->second[0].second)) {
            size_t lock;
            if (ResolveLockText(nullptr, fit->second[0].first, arg, &lock)) {
              AddAcquisition(&held, lock, /*try_edge=*/false, fm.path,
                             t.line, fn.qualified + " calls " + t.text,
                             depth);
            }
          }
        }
      }
    }
  }

  /// Resolves the first constructor argument starting at the '(' token.
  bool ResolveArgExpr(const std::vector<Token>& toks, size_t open,
                      const FunctionDecl* fn, size_t* out) const {
    int depth = 0;
    std::string member, receiver;
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
        continue;
      }
      if (t.kind == TokKind::kIdent) {
        // Walk the access chain: the last ident is the member, the one
        // before the final separator its receiver.
        receiver = prev_was_sep ? member : "";
        member = t.text;
        prev_was_sep = false;
      }
    }
    if (member.empty()) return false;
    return ResolveLock(fn, fn != nullptr ? fn->qualifier : "", receiver,
                       member, out);
  }

  void AddFinding(const std::string& file, int line, const std::string& rule,
                  const std::string& message) {
    graph_.findings.push_back({file, line, rule, message});
  }

  void RunCycleRule() {
    // Adjacency over blocking edges.
    std::map<std::string, std::vector<const LockEdge*>> adj;
    std::set<std::string> self_reported;
    for (const LockEdge& e : graph_.edges) {
      if (e.try_edge) continue;
      if (e.from == e.to) {
        // A blocking self edge is already a two-thread deadlock: each
        // holds one instance and blocks on the other's.
        if (self_reported.insert(e.from).second) {
          AddFinding(e.file, e.line, "lock-order-cycle",
                     "lock-order cycle " + e.from + " -> " + e.to +
                         " (same-lock blocking acquisition, " + e.note + ")");
        }
        continue;
      }
      adj[e.from].push_back(&e);
    }
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<const LockEdge*> path;
    std::set<std::string> reported;
    std::function<void(const std::string&)> dfs =
        [&](const std::string& node) {
          color[node] = 1;
          for (const LockEdge* e : adj[node]) {
            if (color[e->to] == 1) {
              // Reconstruct the cycle from the path tail.
              std::string desc = e->to;
              std::string sites = e->file + ":" + std::to_string(e->line);
              bool in_cycle = false;
              for (const LockEdge* p : path) {
                if (p->from == e->to) in_cycle = true;
                if (in_cycle) {
                  desc += " -> " + p->to;
                  sites += ", " + p->file + ":" + std::to_string(p->line);
                }
              }
              desc += " -> " + e->to;
              if (reported.insert(desc).second) {
                AddFinding(e->file, e->line, "lock-order-cycle",
                           "lock-order cycle " + desc + " (acquire sites: " +
                               sites + ")");
              }
              continue;
            }
            if (color[e->to] == 0) {
              path.push_back(e);
              dfs(e->to);
              path.pop_back();
            }
          }
          color[node] = 2;
        };
    for (const LockDecl& d : graph_.locks) {
      if (color[d.id] == 0) dfs(d.id);
    }
  }

  const TreeModel& tree_;
  LockGraph graph_;
  std::map<const FieldDecl*, size_t> by_field_;
  /// unqualified name -> [(context class, ACQUIRE args)]
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      acquire_fns_;
};

}  // namespace

LockGraph BuildLockGraph(const TreeModel& tree) {
  return GraphBuilder(tree).Build();
}

std::string LockGraphToDot(const LockGraph& graph) {
  std::string out = "digraph lock_order {\n  rankdir=LR;\n"
                    "  node [shape=box, fontname=\"Helvetica\"];\n";
  std::set<std::string> emitted;
  for (const LockDecl& d : graph.locks) {
    if (!emitted.insert(d.id).second) continue;
    out += "  \"" + d.id + "\";\n";
  }
  // Merge duplicate (from, to, kind) edges, keep one example site.
  std::map<std::string, std::pair<const LockEdge*, int>> merged;
  for (const LockEdge& e : graph.edges) {
    const std::string key =
        e.from + "\x01" + e.to + "\x01" + (e.try_edge ? "t" : "b");
    auto it = merged.find(key);
    if (it == merged.end()) {
      merged[key] = {&e, 1};
    } else {
      ++it->second.second;
    }
  }
  for (const auto& entry : merged) {
    const LockEdge& e = *entry.second.first;
    const int count = entry.second.second;
    std::string label = e.file + ":" + std::to_string(e.line);
    const size_t slash = label.rfind('/');
    if (slash != std::string::npos) label = label.substr(slash + 1);
    if (count > 1) label += " (+" + std::to_string(count - 1) + ")";
    out += "  \"" + e.from + "\" -> \"" + e.to + "\" [label=\"" +
           label + "\"";
    if (e.try_edge) out += ", style=dashed";
    out += "];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace analysis
}  // namespace bpw
