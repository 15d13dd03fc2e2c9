// Closed-loop replay of pre-generated access streams through the real
// pgBatPre stack (StorageEngine → BufferPool → Coordinator → 2Q).
//
// Streams are generated before any timing starts, from the public
// CreateTrace generators, and packed four bytes per access. Each worker
// replays its own stream cyclically: it fetches a page, checks the page's
// header stamp, marks it dirty if the access writes, and releases it before
// issuing the next access. A transaction runs from one begins_transaction
// access to the next in the same stream (the definition src/harness/driver.cc
// uses), and its response time is taken at those boundaries.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/buffer_pool.h"
#include "obs/metrics.h"
#include "storage/storage_engine.h"
#include "timing_coordinator.h"
#include "util/histogram.h"
#include "util/status.h"
#include "workload/trace_generator.h"

namespace perfbench {

/// Packed access: page id in the low 30 bits, then the write flag, then the
/// begins-transaction flag.
inline constexpr uint32_t kBeginBit = 1u << 31;
inline constexpr uint32_t kWriteBit = 1u << 30;
inline constexpr uint32_t kPageMask = kWriteBit - 1;

using Stream = std::vector<uint32_t>;

struct Streams {
  std::vector<Stream> per_worker;
  /// FNV-1a over every access of every stream, in worker order
  /// (TraceFingerprintStep).
  uint64_t fingerprint = 0;
};

/// Generates `workers` streams of `spec`. Each stream holds whole
/// transactions: it is cut at the first transaction boundary at or after
/// `min_accesses`, so cyclic replay never splices two half transactions.
bpw::StatusOr<Streams> GenerateStreams(const bpw::WorkloadSpec& spec,
                                       uint32_t workers,
                                       uint64_t min_accesses);

struct StackConfig {
  uint64_t footprint_pages = 0;
  size_t num_frames = 0;
  size_t page_size = 4096;
  /// Wrap the coordinator in a TimingCoordinator and time the policy lock
  /// (LockInstrumentation::kTiming).
  bool traced = false;
};

/// One pgBatPre buffer manager over zero-latency storage.
struct Stack {
  std::unique_ptr<bpw::StorageEngine> storage;
  std::unique_ptr<bpw::BufferPool> pool;
};

/// Builds the stack from PaperSystemConfig("pgBatPre") and prewarms the
/// first min(footprint, frames) pages.
bpw::StatusOr<Stack> BuildStack(const StackConfig& config);

/// FetchPage outcomes of one worker (or a merge of several) over one
/// window.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t succeeded = 0;
  /// Successful fetches whose header stamp did not name the requested page.
  uint64_t stamp_errors = 0;
  /// From the session's own counters.
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t transactions = 0;
  bpw::Histogram tx_ns;

  void Merge(const Tally& other);
};

/// Replays the first `accesses` entries of `stream` on the calling thread,
/// untimed, then flushes the session. For tests.
Tally ReplayCount(bpw::BufferPool& pool, const Stream& stream,
                  uint64_t accesses);

struct TimedRunConfig {
  double warmup_s = 0.5;
  double measure_s = 1.0;
  /// The measurement is split into this many equal windows.
  int windows = 1;
  /// Record spans (the stack must have been built traced).
  bool traced = false;
  /// Traced runs sample one transaction in this many per worker.
  uint32_t sample_every = 32;
  /// Spans each worker keeps for the output file.
  size_t span_retain = 8192;
};

struct TimedRunResult {
  /// Per window, merged over workers, with the window's wall time.
  std::vector<Tally> windows;
  std::vector<double> window_seconds;
  /// CPU time the hypervisor stole from this machine's CPUs in each window,
  /// summed over CPUs (0 where the kernel does not account steal).
  std::vector<double> window_steal_seconds;
  Tally total;
  double measure_seconds = 0;

  // Deltas over the measurement window.
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t eviction_races = 0;
  bpw::LockStats lock;
  bpw::StorageStats storage;
  /// Every registered metric, including the coordinator's coord.* counters.
  bpw::obs::MetricsSnapshot metrics;

  /// One per worker when traced.
  std::vector<std::unique_ptr<SpanRecorder>> recorders;
};

/// Runs one closed-loop worker per stream: a warm-up, then the measurement
/// windows. Workers are joined before it returns.
TimedRunResult RunTimed(bpw::BufferPool& pool, const Streams& streams,
                        const TimedRunConfig& config);

}  // namespace perfbench
