// MetricsRegistry: named counters / gauges / histograms with a snapshot
// surface for the sampler and exporters.
//
// Hot-path discipline (the same reasoning as ContentionLock's layout): a
// counter increment from a worker thread must never bounce a shared cache
// line. Counter therefore shards its value across kCacheLineSize-aligned
// per-thread cells indexed by CurrentThreadId(); Add() is one relaxed
// fetch_add on the caller's cell and Sum() folds the cells. The
// BPW_METRIC_ADD macro additionally gates on a process-wide enabled flag so
// an instrumented hot path pays at most one relaxed atomic add (one relaxed
// load + branch when disabled).
//
// Components that already maintain their own counters (ContentionLock,
// StorageEngine, the coordinators, the buffer pool) do not mirror every
// increment into the registry — that would double the hot-path cost. They
// register a *source*: a callback the registry invokes at snapshot time to
// contribute named values. Duplicate names accumulate, so two coordinators
// alive at once sum into one series.
//
// The counter idiom for hot paths is SingleWriterCounter: each counter has
// one writer (a session, a coordinator thread slot, or whoever holds a
// storage stripe's lock), which adds with a relaxed load and store — no
// locked read-modify-write, and no line another writer touches. The
// component's source sums its live counters plus the totals of retired
// ones at snapshot time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sync/mutex.h"
#include "sync/spinlock.h"
#include "util/cacheline.h"
#include "util/histogram.h"
#include "util/thread_annotations.h"
#include "util/thread_id.h"

namespace bpw {
namespace obs {

namespace internal {
inline std::atomic<bool> g_metrics_enabled{true} BPW_RELAXED_OK(
    "recording switch; increments may observe a toggle late");
}  // namespace internal

/// Process-wide recording switch consulted by BPW_METRIC_ADD. Snapshots and
/// sources are unaffected — only macro-guarded hot-path increments stop.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

/// Monotonic counter sharded across cacheline-padded cells so concurrent
/// writers from different threads never contend.
class Counter {
 public:
  static constexpr size_t kShards = 16;

  void Add(uint64_t n) {
    cells_[CurrentThreadId() & (kShards - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum of all cells. Concurrent-writer safe; the result is a moment-in-
  /// time lower bound, exact once writers quiesce.
  uint64_t Sum() const {
    uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every cell with atomic stores; safe against concurrent Add()
  /// (increments racing the reset land in the new epoch or are dropped,
  /// never torn).
  void Reset() {
    for (auto& cell : cells_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  CacheAligned<std::atomic<uint64_t>> cells_[kShards];
};

/// A monotonic counter with exactly one writer at a time: the thread that
/// owns it, or whoever holds the lock that serializes its writers. Add() is
/// a relaxed load plus a relaxed store — a plain increment on the owner's
/// own cache line, never a locked RMW — and any thread may read value()
/// concurrently (a moment-in-time lower bound, exact once the writer
/// quiesces). Two concurrent writers would lose increments; that is the
/// contract, not a race this type tolerates.
class SingleWriterCounter {
 public:
  void Add(uint64_t n) {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Writer-side reset (the same single-writer rule as Add).
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0} BPW_RELAXED_OK(
      "single writer; readers sum a moment-in-time value");
};

/// A point-in-time signed value (queue depth, free frames, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0} BPW_RELAXED_OK("stats gauge");
};

/// Thread-safe wrapper over util's Histogram for off-hot-path distributions
/// (a Record is a short spinlock critical section; do not put this on a
/// per-access path).
class HistogramMetric {
 public:
  void Record(uint64_t v) {
    SpinLockGuard guard(lock_);
    hist_.Record(v);
  }

  Histogram snapshot() const {
    SpinLockGuard guard(lock_);
    return hist_;
  }

  void Reset() {
    SpinLockGuard guard(lock_);
    hist_.Reset();
  }

 private:
  mutable SpinLock lock_;
  Histogram hist_ BPW_GUARDED_BY(lock_);
};

/// One snapshot of every registered metric, keyed by name. std::map keeps
/// JSON output deterministically ordered.
struct MetricsSnapshot {
  uint64_t wall_nanos = 0;  ///< NowNanos() at snapshot time (monotonic)
  std::map<std::string, double> values;
  /// Names in `values` that are point-in-time levels rather than cumulative
  /// counts; differencing keeps their later value.
  std::set<std::string> gauges;

  /// Accumulates (duplicate names sum — see the source discussion above).
  void Add(const std::string& name, double v) { values[name] += v; }
  /// Add() for a gauge: marks `name` so DeltaFrom does not difference it.
  void AddGauge(const std::string& name, double v) {
    Add(name, v);
    gauges.insert(name);
  }

  double value(const std::string& name, double def = 0.0) const {
    auto it = values.find(name);
    return it == values.end() ? def : it->second;
  }

  /// Pointwise `this - earlier` (names missing from `earlier` count as 0)
  /// for counters; gauges keep this snapshot's value.
  MetricsSnapshot DeltaFrom(const MetricsSnapshot& earlier) const;

  /// One JSON object: {"t_ms":<monotonic ms>,"values":{"name":v,...}}.
  std::string ToJson() const;
};

/// Callback contributing values to a snapshot.
using MetricSourceFn = std::function<void(MetricsSnapshot&)>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the library's components register into.
  static MetricsRegistry& Default();

  /// Returns the counter named `name`, creating it on first use. The pointer
  /// stays valid for the registry's lifetime, so components cache it and
  /// increment without any lookup.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  /// Registers a snapshot-time contributor. Returns an id for Unregister.
  /// The callback must stay valid until UnregisterSource returns (use
  /// ScopedMetricSource to tie it to the owning object's lifetime).
  uint64_t RegisterSource(MetricSourceFn fn);
  void UnregisterSource(uint64_t id);

  /// Reads every counter/gauge/histogram and invokes every source.
  /// Histograms contribute <name>.count/.mean/.p50/.p95/.max.
  MetricsSnapshot Snapshot() const;

  /// Resets owned counters and histograms (sources own their own state).
  void ResetCounters();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      BPW_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ BPW_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_
      BPW_GUARDED_BY(mu_);
  std::vector<std::pair<uint64_t, MetricSourceFn>> sources_
      BPW_GUARDED_BY(mu_);
  uint64_t next_source_id_ BPW_GUARDED_BY(mu_) = 1;
};

/// RAII registration of a metric source: unregisters on destruction, so a
/// component whose last member this is can safely hand `this` to the
/// callback.
class ScopedMetricSource {
 public:
  ScopedMetricSource() = default;
  ScopedMetricSource(MetricsRegistry* registry, MetricSourceFn fn)
      : registry_(registry), id_(registry->RegisterSource(std::move(fn))) {}
  ~ScopedMetricSource() { Release(); }

  ScopedMetricSource(ScopedMetricSource&& other) noexcept {
    *this = std::move(other);
  }
  ScopedMetricSource& operator=(ScopedMetricSource&& other) noexcept {
    if (this != &other) {
      Release();
      registry_ = other.registry_;
      id_ = other.id_;
      other.registry_ = nullptr;
      other.id_ = 0;
    }
    return *this;
  }

 private:
  void Release() {
    if (registry_ != nullptr) {
      registry_->UnregisterSource(id_);
      registry_ = nullptr;
    }
  }

  MetricsRegistry* registry_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace obs
}  // namespace bpw

/// Hot-path increment: nothing when metrics are disabled, one relaxed
/// sharded atomic add when enabled. `counter` is an obs::Counter* (may be
/// null before registration).
#define BPW_METRIC_ADD(counter, n)                             \
  do {                                                         \
    ::bpw::obs::Counter* bpw_metric_c_ = (counter);            \
    if (bpw_metric_c_ != nullptr && ::bpw::obs::MetricsEnabled()) \
      bpw_metric_c_->Add(n);                                   \
  } while (0)
