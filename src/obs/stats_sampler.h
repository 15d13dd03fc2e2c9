// StatsSampler: a background thread that snapshots a MetricsRegistry on a
// fixed interval into an in-memory time series, so a run shows contention
// *over time* instead of one end-of-run aggregate. Dumps as JSON-lines (one
// snapshot object per line) for plotting.
//
// Start() records an initial snapshot and Stop() records a final one, so a
// started-and-stopped sampler always holds at least two samples regardless
// of interval vs run length. SampleNow() works without the thread for
// deterministic tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "sync/mutex.h"
#include "util/thread_annotations.h"

namespace bpw {
namespace obs {

class StatsSampler {
 public:
  /// @param registry     snapshotted registry (not owned; must outlive this)
  /// @param interval_ms  sampling period of the background thread
  StatsSampler(MetricsRegistry* registry, uint64_t interval_ms);
  ~StatsSampler();

  StatsSampler(const StatsSampler&) = delete;
  StatsSampler& operator=(const StatsSampler&) = delete;

  /// Takes an initial sample and starts the sampling thread. No-op if
  /// already running.
  void Start();

  /// Stops and joins the thread, taking one final sample. Idempotent.
  void Stop();

  /// Takes one snapshot immediately on the calling thread and appends it.
  MetricsSnapshot SampleNow();

  /// Copy of the series collected so far (cumulative snapshots).
  std::vector<MetricsSnapshot> samples() const;

  /// One JSON object per line, cumulative values (see Deltas for rates).
  std::string ToJsonLines() const;

  /// Pairwise deltas of a cumulative series: result[i] = series[i+1] -
  /// series[i] (empty for fewer than two samples); gauges keep the value of
  /// series[i+1]. Counter deltas divided by the snapshot's t_ms gap give
  /// rates.
  static std::vector<MetricsSnapshot> Deltas(
      const std::vector<MetricsSnapshot>& series);

  /// Ticks where taking the snapshot itself ran longer than the sampling
  /// interval. A nonzero value means the series under-samples: gaps in the
  /// time axis are sampler lag, not workload behaviour — which is why
  /// bpw_run surfaces these in its obs-health summary instead of letting
  /// the data loss stay silent.
  uint64_t overruns() const {
    return overruns_.load(std::memory_order_relaxed);
  }
  /// Whole sampling periods covered by over-long snapshots — the number of
  /// samples the series is missing relative to a perfectly paced sampler.
  uint64_t skipped_ticks() const {
    return skipped_ticks_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  void Append(MetricsSnapshot snap);

  MetricsRegistry* registry_;
  const uint64_t interval_ms_;

  mutable Mutex mu_;
  std::condition_variable_any cv_;  // waits on the annotated Mutex directly
  bool stop_ BPW_GUARDED_BY(mu_) = false;
  bool running_ BPW_GUARDED_BY(mu_) = false;
  std::thread thread_;  // Start/Stop discipline; never touched by Loop()
  std::vector<MetricsSnapshot> samples_ BPW_GUARDED_BY(mu_);
  std::atomic<uint64_t> overruns_{0} BPW_RELAXED_OK("stats counter");
  std::atomic<uint64_t> skipped_ticks_{0} BPW_RELAXED_OK("stats counter");
};

}  // namespace obs
}  // namespace bpw
