// Minimal contention-profiler hook surface for the locking layer.
//
// src/sync/ locks carry a ProfSiteId and call the ProfRecord* functions on
// their acquire/release paths. Those locks must not pull in the full
// profiler (its registry, histograms, and export types), so this header is
// the dependency floor: the site-id type, the process-wide runtime switch,
// and the out-of-line recording entry points — nothing else.
//
// Build-time gate: BPW_PROF defaults to 1. Configuring with -DBPW_PROF=0
// (the CMake option of the same name) removes every profiling branch from
// the lock hot paths and turns the BPW_PROF_* macros in
// contention_profiler.h into no-ops; the recording functions still link so
// mixed call sites cannot break the build. With BPW_PROF=1 an instrumented
// lock whose profiling is disabled (the default) pays one relaxed load and
// branch per acquisition.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/thread_annotations.h"

#ifndef BPW_PROF
#define BPW_PROF 1
#endif

namespace bpw {
namespace obs {

/// Index of a registered profiling site (see contention_profiler.h).
/// Site ids double as accumulation keys: every lock bound to the same site
/// aggregates into one row (e.g. every partition's policy lock is one site).
using ProfSiteId = uint32_t;
inline constexpr ProfSiteId kInvalidProfSite = 0xFFFFFFFFu;

namespace internal {
inline std::atomic<bool> g_prof_enabled{false} BPW_RELAXED_OK(
    "profiling switch; sites may observe a toggle late");
}  // namespace internal

/// Process-wide profiling switch. Off by default: sites register and locks
/// stay bound either way, only the per-acquisition recording is gated.
inline bool ProfilerEnabled() {
  return internal::g_prof_enabled.load(std::memory_order_relaxed);
}
void SetProfilerEnabled(bool enabled);

/// Records one lock acquisition at `site`. `contended` marks an acquisition
/// whose first non-blocking attempt failed; `wait_nanos` is the time spent
/// blocked/spinning (0 for uncontended acquisitions).
void ProfRecordAcquire(ProfSiteId site, bool contended, uint64_t wait_nanos);

/// Records one lock release: `hold_nanos` spent inside the critical section.
void ProfRecordHold(ProfSiteId site, uint64_t hold_nanos);

/// Waiter-depth bookkeeping around a blocked acquisition; the profiler
/// tracks the maximum concurrent waiter count per site.
void ProfWaiterEnter(ProfSiteId site);
void ProfWaiterExit(ProfSiteId site);

}  // namespace obs
}  // namespace bpw
