// StorageEngine: the simulated disk under the buffer pool.
//
// The paper's evaluation ran against real RAID arrays; here the storage is
// a latency model plus an in-memory "ground truth" so that tests can verify
// buffer-pool integrity (every read returns the bytes last written for that
// page). Scalability experiments (Figs 6-7) run with zero misses, so the
// latency model only matters for the overall-performance experiment
// (Fig 8), where a miss must cost enough that hit ratio shows up in
// throughput.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "sync/spinlock.h"
#include "testing/fault_injector.h"
#include "util/cacheline.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace bpw {

/// How long a simulated I/O takes.
struct StorageLatencyModel {
  /// Fixed component, applied to every read/write (nanoseconds).
  uint64_t read_nanos = 0;
  uint64_t write_nanos = 0;
  /// If true, the latency is drawn from an exponential distribution with the
  /// configured mean instead of being fixed.
  bool exponential = false;
  /// If true, latency is modelled with a sleeping wait (the thread yields
  /// the CPU, as it would blocked on a real disk); if false, a busy-wait
  /// (models polled/high-speed devices). Sleeping is what the Fig. 8
  /// experiments need: on an over-committed machine, a thread blocked on a
  /// miss must let other transactions run.
  bool use_sleep = false;

  static StorageLatencyModel None() { return {}; }
  static StorageLatencyModel FixedMicros(uint64_t read_us, uint64_t write_us) {
    return {read_us * 1000, write_us * 1000, false, false};
  }
  static StorageLatencyModel SleepingMicros(uint64_t read_us,
                                            uint64_t write_us) {
    return {read_us * 1000, write_us * 1000, false, true};
  }
};

/// Per-engine I/O counters.
struct StorageStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_nanos = 0;
  uint64_t write_nanos = 0;
};

/// A page-granular simulated storage device. Thread-safe: concurrent reads
/// and writes of distinct pages proceed in parallel (as on a real array);
/// accesses to the same page are serialized by a striped lock.
class StorageEngine {
 public:
  /// @param num_pages   total pages on the device
  /// @param page_size   bytes per page
  /// @param model       latency model applied to each I/O
  /// @param materialize if true, page contents are stored so reads return
  ///                    real data; if false (default for big benchmarks),
  ///                    only a per-page checksum word is kept, which still
  ///                    lets the buffer pool detect lost updates
  StorageEngine(uint64_t num_pages, size_t page_size,
                StorageLatencyModel model = StorageLatencyModel::None(),
                bool materialize = false);

  /// Reads page `page` into `buf` (page_size bytes). Applies read latency.
  Status ReadPage(PageId page, void* buf);

  /// Writes page `page` from `buf` (page_size bytes). Applies write latency.
  Status WritePage(PageId page, const void* buf);

  uint64_t num_pages() const { return num_pages_; }
  size_t page_size() const { return page_size_; }

  /// Snapshot of I/O counters: the sum over the lock stripes. Safe while
  /// I/O runs (a moment-in-time lower bound, exact once I/O quiesces).
  StorageStats stats() const;
  /// Zeroes the counters, one stripe at a time under its lock; I/O racing
  /// the reset lands wholly before or after it.
  void ResetStats();

  /// Test hook: the verification word currently stored for `page`.
  uint64_t VerificationWord(PageId page) const;

  /// Test hook: routes every subsequent I/O through `injector` (nullptr to
  /// disable). The injector is not owned and must outlive the traffic.
  /// Injected failures surface as Status::IOError from Read/WritePage;
  /// injected latency honours the engine's sleeping/busy-wait mode; torn
  /// writes persist only the first stamp word so ReadStamp consistency
  /// checks can detect them.
  void SetFaultInjector(testing::FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// True if the stamp stored for `page` is internally consistent (word 0
  /// matches word 1's version). A torn write breaks this. Quiesced callers
  /// only.
  bool StampConsistent(PageId page) const;

  /// Fills the first 16 bytes of `buf` with a deterministic header for
  /// `page` stamped with `version`; used by tests and the integrity checks.
  static void StampPage(void* buf, size_t page_size, PageId page,
                        uint64_t version);

  /// Extracts the (page, version) stamp written by StampPage.
  static std::pair<PageId, uint64_t> ReadStamp(const void* buf);

 private:
  /// Waits out one I/O's modelled latency; returns the nanoseconds waited.
  uint64_t ApplyLatency(uint64_t base_nanos, uint64_t extra_nanos);

  /// One lock stripe: the lock serializing its pages' I/O, and that I/O's
  /// counters, written only under the lock (so one writer at a time).
  struct Stripe {
    SpinLock lock;
    obs::SingleWriterCounter reads;
    obs::SingleWriterCounter writes;
    obs::SingleWriterCounter read_nanos;
    obs::SingleWriterCounter write_nanos;
  };
  Stripe& StripeFor(PageId page) {
    return stripes_[page % kLockStripes].value;
  }

  static constexpr size_t kLockStripes = 64;

  uint64_t num_pages_;
  size_t page_size_;
  StorageLatencyModel model_;
  bool materialize_;

  // data_ / verification_ are sharded across the stripe locks, a
  // many-to-one guarding the annotation language cannot express (guarded_by
  // names exactly one capability). The stripe discipline — byte ranges of a
  // page are only touched under StripeFor(page).lock — is enforced by
  // keeping all access inside Read/WritePage and verified dynamically by
  // TSan.
  std::vector<uint8_t> data_;           // materialized page contents
  std::vector<uint64_t> verification_;  // first 16 bytes of each page (2 words)
  std::vector<CacheAligned<Stripe>> stripes_;

  // Latency jitter source; protected by its own lock because Random is not
  // thread-safe. Only used when model_.exponential is set.
  SpinLock rng_lock_;
  Random rng_ BPW_GUARDED_BY(rng_lock_){0xB5D4C1E5u};

  // Optional fault source (test hook; see SetFaultInjector).
  std::atomic<testing::FaultInjector*> fault_injector_{nullptr};

  // Declared last so it unregisters before anything it reads is destroyed.
  obs::ScopedMetricSource metrics_source_;
};

}  // namespace bpw
