// Lock-acquisition order graph over the whole tree.
//
// Nodes are lock declarations: every field of a sync capability type
// (ContentionLock / SpinLock / Mutex), named "Owner::name" ("::name" for
// globals).
//
// Edges are acquisition sites observed while another lock is held: guard
// constructions, manual .Lock()/.lock() calls, and calls to functions
// annotated BPW_ACQUIRE. Held sets seed from BPW_REQUIRES / BPW_RELEASE
// annotations (merged across declaration and definition). TryLock sites
// produce *try edges*: bounded waits cannot complete a cycle, so they are
// whitelisted in the acyclicity proof and rendered dashed in the DOT
// export.
//
// Rule:
//   lock-order-cycle — a cycle among blocking edges.
#pragma once

#include <string>
#include <vector>

#include "analysis/finding.h"
#include "analysis/scope_graph.h"

namespace bpw {
namespace analysis {

/// One lock-typed declaration.
struct LockDecl {
  const FieldDecl* field = nullptr;
  std::string id;  ///< "Owner::name" or "::name" for globals
};

struct LockEdge {
  std::string from;  ///< LockDecl::id
  std::string to;
  std::string file;
  int line = 0;
  bool try_edge = false;
  std::string note;  ///< human context: function + acquisition kind
};

struct LockGraph {
  std::vector<LockDecl> locks;
  std::vector<LockEdge> edges;
  std::vector<Finding> findings;
};

/// Builds the graph and runs the cycle rule. Findings come back
/// unsuppressed; bpw_check applies bpw-lint-allow.
LockGraph BuildLockGraph(const TreeModel& tree);

/// Graphviz rendering: one node per lock, solid blocking edges, dashed try
/// edges.
std::string LockGraphToDot(const LockGraph& graph);

}  // namespace analysis
}  // namespace bpw
