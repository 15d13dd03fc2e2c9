// Interprocedural call graph over the scope graph.
//
// A line-local rule cannot see through a helper call: the helper may
// allocate or loop unboundedly. This layer gives the hold-region prover
// (hold_cost.h) the call structure it needs to close that hole.
//
// Nodes are functions keyed by qualified name (declaration and definition
// join exactly as in TreeModel::function_annotations; overloads share a
// node and their effects merge — a sound over-approximation). Edges come
// from a token scan of every body:
//
//   - `recv.M(` / `recv->M(`: the receiver is typed through the
//     function's locals/params, then the enclosing class's fields (via
//     the declarator text), then `this`. If the named class (or an
//     ancestor) declares M, the call resolves there — and, because calls
//     through the `ReplacementPolicy` / `Coordinator` interfaces dispatch
//     virtually, it fans out to every override of M in types derived from
//     the declaring class (base lists are parsed by the scope graph).
//   - `Scope::M(`: exact qualified lookup, no fan-out.
//   - bare `M(`: a method of the enclosing class (or an ancestor, with
//     virtual fan-out), else a uniquely-named free function, else a known
//     type's constructor.
//   - a call of a local, parameter, or std::function-typed field
//     (`evictable(frame)`, `cb_.on_evict(...)`) is an *indirect call*:
//     the target set is statically unknown, so effect analysis treats it
//     as conservatively may-everything.
//
// Unresolved names (std::, libc, ...) produce no edge; the effect layer
// classifies the known-impure ones (make_unique, push_back, NowNanos, ...)
// by name. The model degrades by omission everywhere except indirect
// calls, which degrade by conservatism — the direction that keeps the
// hold-region proof sound.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/scope_graph.h"

namespace bpw {
namespace analysis {

struct CallEdge {
  size_t callee = 0;  ///< node index
  int line = 0;       ///< 1-based call-site line
  bool virtual_dispatch = false;  ///< a fan-out edge to an override
};

/// A call whose target set is statically unknown (function pointer,
/// std::function, or any callable local/param/field).
struct IndirectCall {
  int line = 0;
  std::string expr;  ///< the called name, for diagnostics
};

struct CallNode {
  std::string qualified;
  /// Every definition of this name that has a body, with its file.
  std::vector<std::pair<const FunctionDecl*, const FileModel*>> defs;
  std::vector<CallEdge> edges;
  std::vector<IndirectCall> indirect_calls;
};

struct CallGraph {
  std::vector<CallNode> nodes;
  std::map<std::string, size_t> index;  ///< qualified name -> node

  const CallNode* Find(const std::string& qualified) const {
    auto it = index.find(qualified);
    return it == index.end() ? nullptr : &nodes[it->second];
  }

  /// Transitively derived type names (qualified) of `base` (matched by
  /// unqualified terminal name, the spelling base lists use).
  std::vector<std::string> TransitiveDerived(const std::string& base) const;

  /// base terminal name -> directly derived qualified type names.
  std::multimap<std::string, std::string> derived;
};

CallGraph BuildCallGraph(const TreeModel& tree);

}  // namespace analysis
}  // namespace bpw
