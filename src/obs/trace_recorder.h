// TraceRecorder: per-thread lock-free ring buffers of timed events, exported
// in Chrome trace-event JSON (load in chrome://tracing or
// https://ui.perfetto.dev).
//
// The paper's aggregate numbers (contentions per million accesses) say *how
// much* the lock hurt; a trace says *when* — which latency spike lines up
// with a blocking Lock() fallback, how batch sizes breathe over a run. The
// recorded kinds mirror exactly the paper's events of interest: lock wait
// spans, lock hold spans, batch-commit spans (arg = batch size),
// blocking-fallback instants, and eviction instants.
//
// Concurrency design: each thread writes only its own ring (registered on
// first emit, owned by the recorder so events survive thread exit). Every
// stored word and the ring head are relaxed atomics, so concurrent export
// is race-free; an export taken while writers are running may see a few
// half-written (torn) events, which is acceptable for a diagnostic trace —
// export after joining workers for exact output. When tracing is disabled
// (the default) an instrumented code path pays one relaxed load + branch:
// TraceEnabled() reads the default recorder's switch, an inline global,
// without going through TraceRecorder::Default().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sync/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_id.h"

namespace bpw {
namespace obs {

namespace internal {
/// TraceRecorder::Default()'s recording switch (see TraceEnabled()).
inline std::atomic<bool> g_default_trace_enabled{false} BPW_RELAXED_OK(
    "recording switch; emitters may observe a toggle late");
}  // namespace internal

enum class TraceEventKind : uint32_t {
  kLockWait = 0,     ///< span: blocked inside Lock()
  kLockHold = 1,     ///< span: lock held
  kBatchCommit = 2,  ///< span: BP-Wrapper batch commit; arg = batch size
  kLockFallback = 3, ///< instant: queue full, blocking Lock() fallback
  kEviction = 4,     ///< instant: page evicted; arg = page id
  // Contention-profiler events (obs/contention_profiler.h). The arg is a
  // ProfSiteId path; the exporter resolves it to the ';'-joined path label
  // via ProfPathLabel(), so the stored event stays 4 words.
  kProfPhase = 5,        ///< span: one BPW_PROF_PHASE scope; arg = path id
  kProfCounterWait = 6,  ///< counter sample: cumulative lock wait ns.
                         ///< Counters have no duration, so the dur word
                         ///< carries the path id and arg carries the value.
  kProfCounterHold = 7,  ///< counter sample: cumulative lock hold ns,
                         ///< encoded like kProfCounterWait
};

class TraceRecorder {
 public:
  /// The process-wide recorder every instrumented component emits into.
  static TraceRecorder& Default()
      BPW_HOLD_EFFECT_OK(alloc, "one-time lazy singleton construction; "
                                "steady-state calls never allocate");

  TraceRecorder() : TraceRecorder(nullptr) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return enabled_->load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_->store(enabled, std::memory_order_relaxed);
  }

  /// Ring capacity (events) for buffers created after this call. Existing
  /// thread buffers keep their size.
  void SetBufferCapacity(size_t events);

  /// Records one event from the calling thread. No-op when disabled.
  /// `start_nanos` is a NowNanos() monotonic timestamp; spans carry their
  /// duration, instants pass dur_nanos = 0.
  void Emit(TraceEventKind kind, uint64_t start_nanos, uint64_t dur_nanos,
            uint64_t arg);

  /// Total events emitted (including ones overwritten by ring wrap).
  uint64_t total_events() const;
  /// Events lost to ring wrap (oldest-first within each thread).
  uint64_t dropped_events() const;

  /// Renders everything currently buffered as a Chrome trace JSON document.
  std::string ToChromeTrace() const;

  /// ToChromeTrace() to a file. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Discards all buffered events (buffers stay registered). Call only
  /// while emitters are quiescent if exact counts matter.
  void Clear();

 private:
  // 4 relaxed-atomic words per event: {kind<<32|tid, start, dur, arg}.
  static constexpr size_t kWordsPerEvent = 4;

  struct ThreadBuffer {
    explicit ThreadBuffer(uint32_t tid_in, size_t capacity_in)
        : tid(tid_in),
          capacity(capacity_in),
          words(new std::atomic<uint64_t>[capacity_in * kWordsPerEvent]()) {}

    const uint32_t tid;
    const size_t capacity;
    // Events ever emitted by this thread. Single-writer; concurrent export
    // reads a stale-or-torn tail by design (trace is best-effort).
    std::atomic<uint64_t> head{0} BPW_RELAXED_OK(
        "single-writer ring index; export tolerates a stale tail");
    std::unique_ptr<std::atomic<uint64_t>[]> words BPW_RELAXED_OK(
        "per-word-atomic ring payload; racy export reads are by design");
  };

  /// `enabled_flag` is the switch to use, or nullptr for the recorder's
  /// own (Default() passes the inline global TraceEnabled() reads).
  explicit TraceRecorder(std::atomic<bool>* enabled_flag);

  ThreadBuffer* BufferForThisThread();

  // Process-unique, never reused: the per-thread buffer cache keys on this
  // id rather than the recorder's address, so a new recorder allocated where
  // a destroyed one lived can never validate a stale cache entry.
  const uint64_t recorder_id_;

  std::atomic<bool> own_enabled_{false};
  std::atomic<bool>* const enabled_ BPW_RELAXED_OK(
      "recording switch; emitters may observe a toggle late");
  // 16Ki events/thread (512 KiB). Set while quiesced.
  std::atomic<size_t> capacity_{1 << 14} BPW_RELAXED_OK(
      "configured before threads start emitting");

  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ BPW_GUARDED_BY(mu_);
};

/// Convenience wrappers over TraceRecorder::Default() for hot paths.
/// TraceEnabled() is Default().enabled() as one inline relaxed load.
inline bool TraceEnabled() {
  return internal::g_default_trace_enabled.load(std::memory_order_relaxed);
}
inline void TraceEmit(TraceEventKind kind, uint64_t start_nanos,
                      uint64_t dur_nanos, uint64_t arg = 0) {
  TraceRecorder::Default().Emit(kind, start_nanos, dur_nanos, arg);
}

}  // namespace obs
}  // namespace bpw
