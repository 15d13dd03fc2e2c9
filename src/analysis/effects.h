// Transitive effect summaries over the call graph.
//
// The effect lattice is a bitset per function: may-allocate, may-block,
// may-do-IO, may-log, may-read-clocks, may-loop-unbounded, plus the
// conservative "indirect call" bit for targets the call graph cannot
// enumerate (function pointers / std::function — treated as
// may-everything). Direct effects come from name tables (allocator calls,
// waits and sleeps, file IO, BPW_LOG_*, clock reads including the raw
// contention-profiler primitives); summaries then propagate caller-ward
// over the call graph: Tarjan SCC condensation, processed callees-first, with
// every member of a recursion cycle receiving the union of the cycle's
// effects.
//
// Two escape hatches, both explicit in the source:
//   - BPW_HOLD_EFFECT_OK(effect, reason) on a function declaration
//     removes that effect from the function's summary (direct and
//     inherited): the effect is deliberate, the reason is on record, and
//     callers prove clean against the cleansed summary.
//   - BPW_BOUNDED_BY(expr) on (or directly above) a loop that is not
//     structurally bounded records the bounding argument and removes the
//     unbounded-loop effect for that loop.
//
// Functions defined under src/sync/ are the trusted base (the lock
// implementations themselves read clocks when profiling is enabled and
// spin by design); their summaries are forced empty, mirroring how the
// atomics checker scopes its rules.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/call_graph.h"

namespace bpw {
namespace analysis {

enum Effect : unsigned {
  kEffAlloc = 1u << 0,
  kEffBlock = 1u << 1,
  kEffIo = 1u << 2,
  kEffLog = 1u << 3,
  kEffClock = 1u << 4,
  kEffLoop = 1u << 5,      ///< contains an unbounded, unannotated loop
  kEffIndirect = 1u << 6,  ///< calls through a statically unknown target
};

constexpr unsigned kAllEffects = kEffAlloc | kEffBlock | kEffIo | kEffLog |
                                 kEffClock | kEffLoop | kEffIndirect;

/// "alloc", "block", "io", "log", "clock", "loop", "indirect".
const char* EffectName(unsigned bit);
/// Inverse of EffectName; 0 for unknown names.
unsigned EffectBitByName(const std::string& name);

/// One direct effect site in a function body.
struct EffectSite {
  unsigned bit = 0;
  size_t tok = 0;  ///< token index into the file's stream
  int line = 0;
  std::string what;  ///< "make_unique", "unbounded while", ...
};

/// How a function acquired an effect bit (for witness paths).
struct EffectOrigin {
  bool direct = false;
  std::string what;  ///< direct site description
  int line = 0;      ///< direct site line, or call-site line
  size_t callee = 0; ///< contributing callee node when !direct
};

struct FunctionEffects {
  unsigned bits = 0;        ///< transitive summary, after exoneration
  unsigned exonerated = 0;  ///< bits cleared by BPW_HOLD_EFFECT_OK
  std::map<unsigned, EffectOrigin> origins;
};

struct EffectMap {
  std::vector<FunctionEffects> per_node;  ///< parallel to CallGraph.nodes

  unsigned BitsOf(size_t node) const {
    return node < per_node.size() ? per_node[node].bits : 0;
  }
  /// Renders "A -> B -> make_unique (file.cc:12)" for the bit's witness.
  std::string Witness(const CallGraph& cg, size_t node, unsigned bit) const;
};

/// Loop structure of one function body (shared with the hold checker).
struct LoopInfo {
  size_t kw_tok = 0;     ///< token index of for/while/do
  size_t body_begin = 0; ///< first token of the loop body
  size_t body_end = 0;   ///< one past the last body token
  int line = 0;
  bool bounded = false;   ///< classic for with a condition, or range-for
  bool annotated = false; ///< BPW_BOUNDED_BY on this or the previous line
};
std::vector<LoopInfo> ScanLoops(const FileModel& fm, const FunctionDecl& fn);

/// Direct (line-local) effect sites of one body. Loop effects are not
/// included — pair with ScanLoops.
std::vector<EffectSite> ScanDirectEffects(const FileModel& fm,
                                          const FunctionDecl& fn);

EffectMap ComputeEffects(const TreeModel& tree, const CallGraph& cg);

}  // namespace analysis
}  // namespace bpw
