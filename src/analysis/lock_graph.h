// Lock-acquisition order graph over the whole tree.
//
// Nodes are *lock classes*: every field of a sync capability type
// (ContentionLock / SpinLock / Mutex) forms a class named by its
// declaration ("Owner::name"), unless BPW_LOCK_CLASS("name") merges it
// into a shared class (e.g. every per-shard lock is one "shard" class —
// instances are interchangeable for ordering purposes, which is exactly
// the approximation under which a shard→shard edge means a real deadlock
// risk).
//
// Edges are acquisition sites observed while another lock is held: guard
// constructions, manual .Lock()/.lock() calls, and calls to functions
// annotated BPW_ACQUIRE. Held sets seed from BPW_REQUIRES / BPW_RELEASE
// annotations (merged across declaration and definition). TryLock sites
// produce *try edges*: bounded waits cannot complete a cycle, so they are
// whitelisted in the acyclicity proof and rendered dashed in the DOT
// export.
//
// Rules:
//   lock-order-cycle    — a cycle among blocking edges.
//   leaf-lock-acquires  — a blocking edge out of a BPW_LOCK_LEAF class
//                         (a "never two shard locks" invariant is
//                         encoded as leaf-ness of the shard class).
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
  std::string id;          ///< "Owner::name" or "::name" for globals
  std::string lock_class;  ///< BPW_LOCK_CLASS arg, else id
  bool leaf = false;       ///< BPW_LOCK_LEAF present
};

struct LockEdge {
  std::string from_class;
  std::string to_class;
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

/// Builds the graph and runs the cycle / leaf rules. Findings honour
/// bpw-lint-allow comments in the underlying sources unless
/// `honor_allows` is false (the allow audit wants the unsuppressed set).
LockGraph BuildLockGraph(const TreeModel& tree, bool honor_allows = true);

/// Graphviz rendering: one node per lock class (doubled border for leaf
/// classes), solid blocking edges, dashed try edges.
std::string LockGraphToDot(const LockGraph& graph);

}  // namespace analysis
}  // namespace bpw
