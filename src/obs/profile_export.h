// Exporters for contention-profiler snapshots: JSON (machine), aligned text
// table (humans), and folded stacks (flamegraph tooling).
//
// The folded format is the lingua franca of flamegraph.pl / inferno /
// speedscope: one line per stack, frames joined with ';', a space, and an
// integer weight. Profiler paths are already ';'-joined, so phase rows
// export directly with their *exclusive* nanoseconds as the weight (a
// parent's self time and its children's times then sum to the parent's
// inclusive time, which is what makes the flame widths truthful). Lock rows
// split into two synthetic leaf frames, `<site>;wait` and `<site>;hold`, so
// one graph shows where threads bled time against each lock and which side
// — queueing or the critical section — is to blame.
#pragma once

#include <string>

#include "obs/contention_profiler.h"
#include "util/status.h"

namespace bpw {
namespace obs {

/// One JSON object:
/// {"total_lock_nanos":N,"sites":[{"label":...,"kind":"lock"|"phase",
///  "file":...,"line":N,"depth":N,"uncontended":N,"contended":N,
///  "wait_nanos":N,"hold_nanos":N,"max_waiters":N,
///  "wait":{"count":N,"mean":N,"p50":N,"p95":N,"p99":N,"max":N,
///          "buckets":[[low,count],...]},
///  "hold":{...}},...]}
/// Sites keep snapshot order (sorted by label), so output is deterministic.
/// The sparse bucket pairs carry the full distribution: feeding each pair
/// to Histogram::Add reproduces the histogram exactly, which is what lets
/// ProfSnapshotFromJson round-trip percentiles instead of approximating
/// them from the summary stats.
std::string ProfSnapshotToJson(const ProfSnapshot& snapshot);

/// Inverse of ProfSnapshotToJson. Accepts either a bare report document or
/// a full `bpw_run --json` document (the report is then taken from its
/// "contention" member). Used by tools/bpw_profile to re-render saved
/// reports as folded stacks or tables without re-running the experiment.
StatusOr<ProfSnapshot> ProfSnapshotFromJson(const std::string& text);

/// Aligned per-site table for terminal output. Lock rows show
/// contended/total acquire counts, wait and hold totals with p95s, and max
/// waiter depth; phase rows show entries, inclusive and exclusive totals.
std::string ProfSnapshotToTable(const ProfSnapshot& snapshot);

/// Folded-stack lines ("a;b;c 1234\n"), zero-weight rows omitted, ordered
/// by label. Weights are nanoseconds.
std::string ProfSnapshotToFolded(const ProfSnapshot& snapshot);

/// Writes `content` to `path` ("-" = stdout). Returns false on I/O failure.
/// Shared by the --contention-report flag and tools/bpw_profile.
bool WriteTextFile(const std::string& path, const std::string& content);

/// Static×dynamic hold-time reconciliation (`bpw_profile --reconcile`).
///
/// `costs_json` is the per-hold-site static cost file written by
/// `bpw_check --costs`; `snapshot` is a measured contention report.
/// Joins the two on the profiler label (a hold site inherits the label its
/// lock bound with BindProfSite; a lock's static weight is the MAX over
/// its hold sites — the worst critical section dominates how long the lock
/// can be held), ranks both sides descending, and renders an aligned
/// table: label, static weight/rank, measured mean-hold ns/rank, Δrank.
/// Labels whose ranks diverge by 2 or more positions are flagged — either
/// the static model mis-weighs that section (loops the cost model cannot
/// see through, say) or the workload never exercises the statically-heavy
/// path; both are worth a look before trusting either ranking.
/// Fails only if `costs_json` is not a bpw_check costs document.
StatusOr<std::string> ReconcileHoldCosts(const std::string& costs_json,
                                         const ProfSnapshot& snapshot);

}  // namespace obs
}  // namespace bpw
