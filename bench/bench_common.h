// Shared plumbing for the paper-reproduction bench binaries: environment
// knobs so a full run can be scaled up or down without recompiling.
//
//   BPW_BENCH_MS       per-cell measurement window in ms (default 300)
//   BPW_MAX_THREADS    cap on the thread-count axis (default 16, at most
//                      kMaxThreadCap)
//   BPW_QUICK=1        shorthand: 120 ms cells, thread axis capped at 8
//
// BenchMain parses them strictly before the body runs: a malformed, zero
// or out-of-range value exits 2 naming the knob.
//
// Every binary prints the table/figure id it reproduces, the substitution
// caveats that apply (see DESIGN.md §2), and CSV-ready tables.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/driver.h"
#include "harness/reporter.h"
#include "harness/systems.h"

namespace bpw {
namespace bench {

/// Per-cell measurement window in ms (BPW_BENCH_MS / --ms; default 300,
/// 120 when quick). Valid once BenchMain has started the body.
uint64_t CellMillis();

/// Cap on the thread-count axis (BPW_MAX_THREADS / --max-threads; default
/// 16, 8 when quick), in [1, kMaxThreadCap].
uint32_t MaxThreads();

/// Highest accepted thread cap. The paper's largest machine has 16
/// processors, so a larger cap is a typo; the bound also keeps
/// ThreadAxis's doubling far from overflow.
inline constexpr uint32_t kMaxThreadCap = 1024;

/// Thread axis {1,2,4,...,limit}, as in Figs. 6-7.
inline std::vector<uint32_t> ThreadAxis(uint32_t limit) {
  std::vector<uint32_t> axis;
  for (uint32_t t = 1; t <= limit; t *= 2) axis.push_back(t);
  return axis;
}

inline void PrintHeader(const char* experiment, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", experiment, description);
  std::printf("Host substitution: the paper's multiprocessor runs map to a\n");
  std::printf("thread-count sweep on this machine (over-committed, as the\n");
  std::printf("paper itself does); compare *shapes*, not absolute numbers.\n");
  std::printf("==============================================================\n\n");
}

/// Fails the whole binary on the first experiment error.
template <typename T>
T MustOk(StatusOr<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Registration record for one paper-reproduction bench binary. Every
/// binary declares itself through BPW_BENCH_MAIN instead of hand-rolling
/// main(): the shared BenchMain provides uniform flags (--quick, --ms,
/// --max-threads), a --describe line for tooling, the standard header, and
/// an elapsed-time footer.
struct BenchInfo {
  const char* id;           ///< short machine id, e.g. "fig6"
  const char* title;        ///< header line (figure/table being reproduced)
  const char* description;  ///< setup summary printed under the title
};

/// Shared entry point (bench_common.cc).
int BenchMain(int argc, char** argv, const BenchInfo& info, int (*body)());

#define BPW_BENCH_MAIN(ID, TITLE, DESCRIPTION, BODY)                     \
  int main(int argc, char** argv) {                                      \
    return ::bpw::bench::BenchMain(                                      \
        argc, argv, ::bpw::bench::BenchInfo{ID, TITLE, DESCRIPTION},     \
        BODY);                                                           \
  }

}  // namespace bench
}  // namespace bpw
