// Atomics discipline for the lock-free fast paths.
//
// The annotations (src/util/thread_annotations.h) declare the protocol;
// this checker makes the declarations binding:
//
//   relaxed-unannotated   — a memory_order_relaxed access whose field
//                           carries no BPW_RELAXED_OK / BPW_GUARDED_BY and
//                           whose site has no BPW_RELAXED_OK(reason)
//                           statement.
//   mc-access-unannotated — a BPW_MC_ACCESS_* site whose object has neither
//                           a TSA capability annotation nor BPW_RELAXED_OK:
//                           the race certifier watches it but static
//                           analysis promises nothing.
//
// Findings come back unsuppressed; bpw_check applies bpw-lint-allow.
#pragma once

#include <vector>

#include "analysis/finding.h"
#include "analysis/scope_graph.h"

namespace bpw {
namespace analysis {

extern const char* const kAtomicsRules[2];

/// `all_files_lib` treats every file as library code (the seeded-violation
/// corpus runs with it); by default the rules cover src/ minus src/sync/
/// and src/analysis/.
std::vector<Finding> CheckAtomics(const TreeModel& tree,
                                  bool all_files_lib = false);

}  // namespace analysis
}  // namespace bpw
