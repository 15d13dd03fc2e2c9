// ContentionProfiler: per-site lock wait/hold attribution and commit-phase
// breakdown.
//
// The paper's whole argument is quantitative: Fig. 2 measures lock
// *wait + hold* nanoseconds per access, and §V attributes the scalability
// wins to shrinking both. ContentionLock's aggregate counters say how much
// one lock cost in total; this profiler says *where*: every instrumented
// acquisition is attributed to a static ProfSite (file:line + label,
// registered once per call site), and the coordinator commit path is
// further broken into nestable phases so a report shows exactly which
// nanoseconds of the critical section went to queue draining, policy
// updates, or post-commit bookkeeping — the numbers an early-lock-release
// optimization must move out of the hold time.
//
// Data model
//   site   a static code location (BPW_PROF_SITE / BPW_PROF_PHASE macro
//          expansion): label, file, line, kind (lock or phase).
//   path   a chain of sites ("commit;policy_update"): phases nest, so the
//          same site reached under different parents accumulates
//          separately. Lock sites are always root paths. Paths are the
//          accumulation key and the rows of every export.
//
// Accumulation follows MetricsRegistry's hot-path discipline: each path
// owns kProfShards cacheline-aligned cells indexed by CurrentThreadId(), so
// concurrent recorders never bounce a shared line. Each cell holds
// contended/uncontended acquire counts, total wait and hold nanoseconds,
// and log-bucketed wait/hold histograms using util/histogram.h's exact
// bucket scheme (snapshots reconstruct real Histogram objects, so
// percentile queries and merges behave identically to the response-time
// histograms). Per-path max-waiter depth is tracked on the contended path
// only.
//
// Phase accounting: a BPW_PROF_PHASE scope records its *inclusive* time
// (entry to exit) and its *exclusive* time (inclusive minus the inclusive
// time of directly nested phases). Exports report exclusive time so a
// folded stack sums correctly; inclusive time is kept for the parent rows.
//
// Cost model: BPW_PROF=0 builds compile all of this out (macros empty, lock
// hooks removed). BPW_PROF=1 with profiling disabled — the default — costs
// an instrumented lock one relaxed load + branch per acquisition. Enabled,
// an uncontended acquisition pays two clock reads plus two relaxed
// fetch_adds and two histogram-bucket increments (shared with
// LockInstrumentation::kTiming's clock reads where both are on).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/prof_site.h"
#include "obs/trace_recorder.h"
#include "util/histogram.h"

namespace bpw {
namespace obs {

enum class ProfSiteKind : uint8_t {
  kLock,   ///< a lock acquisition site (wait + hold attribution)
  kPhase,  ///< a BPW_PROF_PHASE scope (inclusive/exclusive attribution)
};

/// Capacity limits. Sites and paths are static program properties, not
/// per-run data; overflowing registrations return kInvalidProfSite and the
/// overflowed site records nothing (sound, just invisible).
inline constexpr uint32_t kMaxProfSites = 128;
inline constexpr uint32_t kMaxProfPaths = 256;
inline constexpr int kMaxProfPhaseDepth = 16;
inline constexpr size_t kProfShards = 16;

/// Registers a static site. Call once per code location (the BPW_PROF_*
/// macros wrap this in a function-local static). `label` and `file` must
/// have static storage duration (string literals). Re-registering an
/// identical (label, kind) pair returns the existing id.
ProfSiteId RegisterProfSite(const char* file, int line, const char* label,
                            ProfSiteKind kind);

/// Returns the accumulation key (root path id) for a lock site — what a
/// lock binds and what the ProfRecord* functions in prof_site.h expect.
ProfSiteId ProfRootPath(ProfSiteId site);

/// Full ';'-joined label of a path id ("?" if unknown). The pointer stays
/// valid for the process lifetime (the registry is immutable once published
/// and intentionally leaked), which is what lets the trace exporter resolve
/// kProfPhase event names without copying.
const char* ProfPathLabel(ProfSiteId path);

/// One export row: a path with its merged counters and histograms.
struct ProfSiteSnapshot {
  std::string label;  ///< full path, ';'-joined ("commit;policy_update")
  std::string file;   ///< leaf site's file (basename not stripped)
  int line = 0;       ///< leaf site's line
  ProfSiteKind kind = ProfSiteKind::kLock;
  int depth = 0;      ///< 0 for root paths, 1 for their children, ...

  // kLock: acquisition counts split by whether the first non-blocking
  // attempt failed. kPhase: `uncontended` counts scope entries, `contended`
  // is 0.
  uint64_t uncontended = 0;
  uint64_t contended = 0;
  // kLock: total blocked-wait / lock-held nanoseconds.
  // kPhase: total inclusive / exclusive nanoseconds.
  uint64_t wait_nanos = 0;
  uint64_t hold_nanos = 0;
  /// kLock only: maximum concurrent blocked waiters observed.
  uint64_t max_waiters = 0;

  /// Distribution of per-event wait (kLock) or inclusive (kPhase) times.
  Histogram wait_hist;
  /// Distribution of per-event hold (kLock) or exclusive (kPhase) times.
  Histogram hold_hist;

  uint64_t events() const { return uncontended + contended; }
};

/// A consistent-enough snapshot of every registered path, sorted by label.
/// Taken while recorders run it is a moment-in-time lower bound, exact once
/// they quiesce (same contract as MetricsRegistry).
struct ProfSnapshot {
  std::vector<ProfSiteSnapshot> sites;

  /// Sum of wait+hold nanoseconds over kLock rows — the profiler's side of
  /// the Fig. 2 (wait+hold)/access computation.
  uint64_t TotalLockNanos() const;

  const ProfSiteSnapshot* Find(const std::string& label) const;
};

/// Merges every shard of every path into a snapshot.
ProfSnapshot CollectProfSnapshot();

/// Emits one Chrome-trace counter sample (kProfCounterWait/Hold) per active
/// lock path: cumulative wait and hold nanoseconds at `now_nanos`. The
/// stats sampler calls this each tick while both tracing and profiling are
/// on, which is what turns the per-site totals into a time series in the
/// merged trace. Cheap relative to CollectProfSnapshot: sums the shard
/// counters only, no strings or histograms.
void EmitProfTraceCounters(uint64_t now_nanos);

/// Zeroes all accumulators (counts, totals, histograms, waiter maxima).
/// Registrations and lock bindings survive. Safe against concurrent
/// recording: cells are reset with atomic stores, so racing increments land
/// in the new epoch whole.
void ResetProfiler();

/// RAII phase scope. Use through BPW_PROF_PHASE so BPW_PROF=0 builds erase
/// the scope (and its clock reads) entirely; bpw_check's hold prover flags
/// direct ScopedProfPhase construction inside critical sections for this
/// reason.
///
/// Active when either consumer wants the data: the accumulators (profiler)
/// or the span stream (tracer). With both off, construction is two inline
/// relaxed loads and destruction one branch; only an active scope calls out
/// of line.
class ScopedProfPhase {
 public:
  explicit ScopedProfPhase(ProfSiteId site) {
    if (ProfilerEnabled() || TraceEnabled()) Begin(site);
  }
  ~ScopedProfPhase() {
    if (path_ != kInvalidProfSite) End();
  }

  ScopedProfPhase(const ScopedProfPhase&) = delete;
  ScopedProfPhase& operator=(const ScopedProfPhase&) = delete;

 private:
  void Begin(ProfSiteId site);
  void End();

  ProfSiteId path_ = kInvalidProfSite;  // resolved against the phase stack
};

}  // namespace obs
}  // namespace bpw

#if BPW_PROF

/// Registers (once) and yields the root-path id for a lock site; bind the
/// result with ContentionLock/SpinLock::BindProfSite.
#define BPW_PROF_SITE(label)                                       \
  ([]() -> ::bpw::obs::ProfSiteId {                                \
    static const ::bpw::obs::ProfSiteId bpw_prof_site_id_ =        \
        ::bpw::obs::ProfRootPath(::bpw::obs::RegisterProfSite(     \
            __FILE__, __LINE__, label,                             \
            ::bpw::obs::ProfSiteKind::kLock));                     \
    return bpw_prof_site_id_;                                      \
  }())

#define BPW_PROF_PHASE_CAT2(a, b) a##b
#define BPW_PROF_PHASE_CAT(a, b) BPW_PROF_PHASE_CAT2(a, b)

/// Opens a nestable profiling phase covering the rest of the enclosing
/// scope. Sanctioned inside critical sections (the clock reads it implies
/// are the measurement itself and vanish under BPW_PROF=0) — bpw_check
/// recognizes exactly this spelling.
#define BPW_PROF_PHASE(label)                                            \
  static const ::bpw::obs::ProfSiteId BPW_PROF_PHASE_CAT(                \
      bpw_prof_phase_site_, __LINE__) =                                  \
      ::bpw::obs::RegisterProfSite(__FILE__, __LINE__, label,            \
                                   ::bpw::obs::ProfSiteKind::kPhase);    \
  ::bpw::obs::ScopedProfPhase BPW_PROF_PHASE_CAT(bpw_prof_phase_,        \
                                                 __LINE__)(              \
      BPW_PROF_PHASE_CAT(bpw_prof_phase_site_, __LINE__))

#else  // !BPW_PROF

#define BPW_PROF_SITE(label) (::bpw::obs::kInvalidProfSite)
#define BPW_PROF_PHASE(label) \
  do {                        \
  } while (0)

#endif  // BPW_PROF
