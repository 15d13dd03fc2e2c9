#include "obs/contention_profiler.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string_view>

#include "obs/trace_recorder.h"
#include "util/cacheline.h"
#include "util/clock.h"
#include "util/thread_id.h"

#include "util/thread_annotations.h"

namespace bpw {
namespace obs {

namespace {

struct SiteEntry {
  const char* file = nullptr;
  int line = 0;
  const char* label = nullptr;
  ProfSiteKind kind = ProfSiteKind::kLock;
};

/// One shard of one path's accumulators. Cacheline-aligned so two threads
/// recording into neighbouring shards never share a line; the histogram
/// bucket arrays trail the hot counters so the common "bump four words"
/// case touches the first line only when the bucketed value is small.
struct alignas(kCacheLineSize) ProfCell {
  std::atomic<uint64_t> uncontended{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> contended{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> wait_nanos{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> hold_nanos{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint32_t> wait_buckets[Histogram::kNumBuckets] BPW_RELAXED_OK("histogram bucket counter") = {};
  std::atomic<uint32_t> hold_buckets[Histogram::kNumBuckets] BPW_RELAXED_OK("histogram bucket counter") = {};
};

struct PathEntry {
  ProfSiteId parent = kInvalidProfSite;  // parent *path* id
  ProfSiteId site = kInvalidProfSite;    // leaf site id
  int depth = 0;
  std::string label;  // full ';'-joined path, stable after publication
  std::unique_ptr<ProfCell[]> cells;  // kProfShards cells
  std::atomic<uint32_t> cur_waiters{0} BPW_RELAXED_OK("waiter gauge; transient over/undershoot is fine");
  std::atomic<uint32_t> max_waiters{0} BPW_RELAXED_OK("high-watermark; monotonic CAS loop tolerates races");
};

// Registration tables. Entries are immutable once published: writers append
// under `lock` and publish by bumping the count with release order; readers
// load the count with acquire and index without locking. Sized statically so
// recording never dereferences a reallocating container.
//
// The lock is a raw std::mutex, not the repo's SpinLock: registration runs
// lazily from worker threads (function-local statics in BPW_PROF_SITE /
// BPW_PROF_PHASE), and SpinLock carries BPW_SCHEDULE_POINT hooks. The
// profiler is part of the measuring instrument — if its registry acquired a
// schedule-pointed lock, the model checker would see extra decision points
// on the first execution of a scenario only (registration is once per
// process), breaking deterministic replay; stress perturbation would widen
// windows inside the profiler instead of the code under test.
struct Registry {
  std::mutex lock;  // bpw-lint-allow(raw-mutex)
  std::atomic<uint32_t> site_count{0};
  std::atomic<uint32_t> path_count{0};
  SiteEntry sites[kMaxProfSites];
  PathEntry paths[kMaxProfPaths];
};

Registry& Reg() {
  // Leaked on purpose: locks may record during static destruction.
  static Registry* instance = new Registry();
  return *instance;
}

/// Looks up (or registers) the path `parent_path -> site`. Lock-free on the
/// hit path; the miss path allocates the shard cells *before* taking the
/// registry lock so the critical section stays allocation-free.
ProfSiteId PathFor(ProfSiteId parent_path, ProfSiteId site) {
  if (site == kInvalidProfSite) return kInvalidProfSite;
  Registry& reg = Reg();
  const uint32_t published = reg.path_count.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < published; ++i) {
    if (reg.paths[i].parent == parent_path && reg.paths[i].site == site) {
      return i;
    }
  }
  auto cells = std::make_unique<ProfCell[]>(kProfShards);
  // bpw-lint-allow(raw-mutex): see Registry — must stay schedule-point free.
  std::lock_guard<std::mutex> guard(reg.lock);
  BPW_RELAXED_OK("count re-read under the registry mutex; the release store that bumps it is the publication");
  const uint32_t count = reg.path_count.load(std::memory_order_relaxed);
  for (uint32_t i = published; i < count; ++i) {
    if (reg.paths[i].parent == parent_path && reg.paths[i].site == site) {
      return i;
    }
  }
  if (count >= kMaxProfPaths) return kInvalidProfSite;
  PathEntry& entry = reg.paths[count];
  entry.parent = parent_path;
  entry.site = site;
  if (parent_path != kInvalidProfSite) {
    entry.depth = reg.paths[parent_path].depth + 1;
    entry.label = reg.paths[parent_path].label;
    entry.label += ';';
    entry.label += reg.sites[site].label;
  } else {
    entry.depth = 0;
    entry.label = reg.sites[site].label;
  }
  entry.cells = std::move(cells);
  reg.path_count.store(count + 1, std::memory_order_release);
  return count;
}

ProfCell& CellFor(PathEntry& path) {
  return path.cells[CurrentThreadId() & (kProfShards - 1)];
}

PathEntry* PathAt(ProfSiteId path) {
  Registry& reg = Reg();
  if (path >= reg.path_count.load(std::memory_order_acquire)) return nullptr;
  return &reg.paths[path];
}

/// Per-thread stack of open BPW_PROF_PHASE scopes. Strict RAII nesting
/// makes pop-from-top always correct.
struct PhaseFrame {
  ProfSiteId path = kInvalidProfSite;
  uint64_t start_nanos = 0;
  uint64_t child_nanos = 0;  // inclusive time of directly nested phases
};
struct PhaseStack {
  PhaseFrame frames[kMaxProfPhaseDepth];
  int depth = 0;
};
thread_local PhaseStack tls_phase_stack;

}  // namespace

void SetProfilerEnabled(bool enabled) {
  internal::g_prof_enabled.store(enabled, std::memory_order_relaxed);
}

ProfSiteId RegisterProfSite(const char* file, int line, const char* label,
                            ProfSiteKind kind) {
  Registry& reg = Reg();
  const uint32_t published = reg.site_count.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < published; ++i) {
    if (reg.sites[i].kind == kind &&
        std::string_view(reg.sites[i].label) == label) {
      return i;
    }
  }
  // bpw-lint-allow(raw-mutex): see Registry — must stay schedule-point free.
  std::lock_guard<std::mutex> guard(reg.lock);
  BPW_RELAXED_OK("count re-read under the registry mutex; the release store that bumps it is the publication");
  const uint32_t count = reg.site_count.load(std::memory_order_relaxed);
  for (uint32_t i = published; i < count; ++i) {
    if (reg.sites[i].kind == kind &&
        std::string_view(reg.sites[i].label) == label) {
      return i;
    }
  }
  if (count >= kMaxProfSites) return kInvalidProfSite;
  reg.sites[count] = SiteEntry{file, line, label, kind};
  reg.site_count.store(count + 1, std::memory_order_release);
  return count;
}

ProfSiteId ProfRootPath(ProfSiteId site) {
  return PathFor(kInvalidProfSite, site);
}

void ProfRecordAcquire(ProfSiteId site, bool contended, uint64_t wait_nanos) {
  if (site == kInvalidProfSite || !ProfilerEnabled()) return;
  PathEntry* path = PathAt(site);
  if (path == nullptr) return;
  ProfCell& cell = CellFor(*path);
  if (contended) {
    cell.contended.fetch_add(1, std::memory_order_relaxed);
    cell.wait_nanos.fetch_add(wait_nanos, std::memory_order_relaxed);
    // The wait histogram samples *contended* acquisitions only; folding the
    // uncontended majority's zeros in would bury the distribution the
    // profiler exists to show.
    cell.wait_buckets[Histogram::BucketFor(wait_nanos)].fetch_add(
        1, std::memory_order_relaxed);
  } else {
    cell.uncontended.fetch_add(1, std::memory_order_relaxed);
  }
}

void ProfRecordHold(ProfSiteId site, uint64_t hold_nanos) {
  if (site == kInvalidProfSite || !ProfilerEnabled()) return;
  PathEntry* path = PathAt(site);
  if (path == nullptr) return;
  ProfCell& cell = CellFor(*path);
  cell.hold_nanos.fetch_add(hold_nanos, std::memory_order_relaxed);
  cell.hold_buckets[Histogram::BucketFor(hold_nanos)].fetch_add(
      1, std::memory_order_relaxed);
}

// The waiter pair deliberately does NOT re-check ProfilerEnabled(): the
// lock paths latch one `prof` decision per acquisition and call Enter/Exit
// under that same decision, so a mid-wait toggle of the global flag cannot
// unbalance cur_waiters.
void ProfWaiterEnter(ProfSiteId site) {
  if (site == kInvalidProfSite) return;
  PathEntry* path = PathAt(site);
  if (path == nullptr) return;
  const uint32_t depth =
      path->cur_waiters.fetch_add(1, std::memory_order_relaxed) + 1;
  uint32_t max = path->max_waiters.load(std::memory_order_relaxed);
  while (depth > max && !path->max_waiters.compare_exchange_weak(
                            max, depth, std::memory_order_relaxed)) {
  }
}

void ProfWaiterExit(ProfSiteId site) {
  if (site == kInvalidProfSite) return;
  PathEntry* path = PathAt(site);
  if (path == nullptr) return;
  path->cur_waiters.fetch_sub(1, std::memory_order_relaxed);
}

void ScopedProfPhase::Begin(ProfSiteId site) {
  // Inactive scopes stay at kInvalidProfSite and skip End().
  PhaseStack& stack = tls_phase_stack;
  if (stack.depth >= kMaxProfPhaseDepth) return;
  const ProfSiteId parent =
      stack.depth > 0 ? stack.frames[stack.depth - 1].path : kInvalidProfSite;
  path_ = PathFor(parent, site);
  if (path_ == kInvalidProfSite) return;
  PhaseFrame& frame = stack.frames[stack.depth++];
  frame.path = path_;
  frame.start_nanos = NowNanos();
  frame.child_nanos = 0;
}

void ScopedProfPhase::End() {
  PhaseStack& stack = tls_phase_stack;
  const PhaseFrame frame = stack.frames[--stack.depth];
  const uint64_t now = NowNanos();
  const uint64_t inclusive = now - frame.start_nanos;
  const uint64_t exclusive =
      inclusive - std::min(frame.child_nanos, inclusive);
  if (stack.depth > 0) {
    stack.frames[stack.depth - 1].child_nanos += inclusive;
  }
  if (PathEntry* path = PathAt(path_)) {
    ProfCell& cell = CellFor(*path);
    cell.uncontended.fetch_add(1, std::memory_order_relaxed);
    cell.wait_nanos.fetch_add(inclusive, std::memory_order_relaxed);
    cell.hold_nanos.fetch_add(exclusive, std::memory_order_relaxed);
    cell.wait_buckets[Histogram::BucketFor(inclusive)].fetch_add(
        1, std::memory_order_relaxed);
    cell.hold_buckets[Histogram::BucketFor(exclusive)].fetch_add(
        1, std::memory_order_relaxed);
  }
  if (TraceEnabled()) {
    TraceEmit(TraceEventKind::kProfPhase, frame.start_nanos, inclusive,
              path_);
  }
}

void EmitProfTraceCounters(uint64_t now_nanos) {
  Registry& reg = Reg();
  const uint32_t count = reg.path_count.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < count; ++i) {
    PathEntry& path = reg.paths[i];
    if (reg.sites[path.site].kind != ProfSiteKind::kLock) continue;
    uint64_t wait = 0;
    uint64_t hold = 0;
    for (size_t s = 0; s < kProfShards; ++s) {
      wait += path.cells[s].wait_nanos.load(std::memory_order_relaxed);
      hold += path.cells[s].hold_nanos.load(std::memory_order_relaxed);
    }
    if (wait == 0 && hold == 0) continue;
    // Counter encoding: dur word = path id, arg = value (trace_recorder.h).
    TraceEmit(TraceEventKind::kProfCounterWait, now_nanos, i, wait);
    TraceEmit(TraceEventKind::kProfCounterHold, now_nanos, i, hold);
  }
}

const char* ProfPathLabel(ProfSiteId path) {
  PathEntry* entry = PathAt(path);
  return entry == nullptr ? "?" : entry->label.c_str();
}

uint64_t ProfSnapshot::TotalLockNanos() const {
  uint64_t total = 0;
  for (const ProfSiteSnapshot& site : sites) {
    if (site.kind == ProfSiteKind::kLock) {
      total += site.wait_nanos + site.hold_nanos;
    }
  }
  return total;
}

const ProfSiteSnapshot* ProfSnapshot::Find(const std::string& label) const {
  for (const ProfSiteSnapshot& site : sites) {
    if (site.label == label) return &site;
  }
  return nullptr;
}

ProfSnapshot CollectProfSnapshot() {
  Registry& reg = Reg();
  ProfSnapshot snap;
  const uint32_t count = reg.path_count.load(std::memory_order_acquire);
  snap.sites.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PathEntry& path = reg.paths[i];
    const SiteEntry& site = reg.sites[path.site];
    ProfSiteSnapshot row;
    row.label = path.label;
    row.file = site.file;
    row.line = site.line;
    row.kind = site.kind;
    row.depth = path.depth;
    row.max_waiters = path.max_waiters.load(std::memory_order_relaxed);
    uint64_t wait_buckets[Histogram::kNumBuckets] = {};
    uint64_t hold_buckets[Histogram::kNumBuckets] = {};
    for (size_t s = 0; s < kProfShards; ++s) {
      const ProfCell& cell = path.cells[s];
      row.uncontended += cell.uncontended.load(std::memory_order_relaxed);
      row.contended += cell.contended.load(std::memory_order_relaxed);
      row.wait_nanos += cell.wait_nanos.load(std::memory_order_relaxed);
      row.hold_nanos += cell.hold_nanos.load(std::memory_order_relaxed);
      for (int b = 0; b < Histogram::kNumBuckets; ++b) {
        wait_buckets[b] += cell.wait_buckets[b].load(std::memory_order_relaxed);
        hold_buckets[b] += cell.hold_buckets[b].load(std::memory_order_relaxed);
      }
    }
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      row.wait_hist.Add(Histogram::BucketLow(b), wait_buckets[b]);
      row.hold_hist.Add(Histogram::BucketLow(b), hold_buckets[b]);
    }
    snap.sites.push_back(std::move(row));
  }
  std::sort(snap.sites.begin(), snap.sites.end(),
            [](const ProfSiteSnapshot& a, const ProfSiteSnapshot& b) {
              return a.label < b.label;
            });
  return snap;
}

void ResetProfiler() {
  Registry& reg = Reg();
  const uint32_t count = reg.path_count.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < count; ++i) {
    PathEntry& path = reg.paths[i];
    // cur_waiters is deliberately left alone: threads blocked across the
    // reset still own their ProfWaiterExit decrement.
    path.max_waiters.store(0, std::memory_order_relaxed);
    for (size_t s = 0; s < kProfShards; ++s) {
      ProfCell& cell = path.cells[s];
      cell.uncontended.store(0, std::memory_order_relaxed);
      cell.contended.store(0, std::memory_order_relaxed);
      cell.wait_nanos.store(0, std::memory_order_relaxed);
      cell.hold_nanos.store(0, std::memory_order_relaxed);
      for (int b = 0; b < Histogram::kNumBuckets; ++b) {
        cell.wait_buckets[b].store(0, std::memory_order_relaxed);
        cell.hold_buckets[b].store(0, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace obs
}  // namespace bpw
