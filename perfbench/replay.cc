#include "replay.h"

#include <unistd.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "core/coordinator_factory.h"
#include "util/clock.h"
#include "workload/trace_fingerprint.h"

namespace perfbench {

using bpw::BufferPool;
using bpw::NowNanos;
using bpw::PageId;

bpw::StatusOr<Streams> GenerateStreams(const bpw::WorkloadSpec& spec,
                                       uint32_t workers,
                                       uint64_t min_accesses) {
  Streams streams;
  streams.fingerprint = bpw::kTraceFingerprintSeed;
  for (uint32_t t = 0; t < workers; ++t) {
    auto trace = bpw::CreateTrace(spec, t);
    if (trace == nullptr) {
      return bpw::Status::InvalidArgument("unknown trace: " + spec.name);
    }
    if (trace->footprint_pages() > kPageMask) {
      return bpw::Status::InvalidArgument("footprint too large to pack");
    }
    Stream stream;
    stream.reserve(min_accesses + 1024);
    for (;;) {
      const bpw::PageAccess access = trace->Next();
      if (access.begins_transaction && stream.size() >= min_accesses) break;
      if (stream.empty() && !access.begins_transaction) {
        return bpw::Status::Internal("stream does not open a transaction");
      }
      streams.fingerprint = bpw::TraceFingerprintStep(streams.fingerprint,
                                                      access);
      stream.push_back(static_cast<uint32_t>(access.page) |
                       (access.is_write ? kWriteBit : 0) |
                       (access.begins_transaction ? kBeginBit : 0));
    }
    streams.per_worker.push_back(std::move(stream));
  }
  return streams;
}

bpw::StatusOr<Stack> BuildStack(const StackConfig& config) {
  auto system = bpw::PaperSystemConfig("pgBatPre");
  if (!system.ok()) return system.status();
  if (config.traced) {
    system.value().instrumentation = bpw::LockInstrumentation::kTiming;
  }
  auto coordinator = bpw::CreateCoordinator(system.value(), config.num_frames);
  if (!coordinator.ok()) return coordinator.status();
  std::unique_ptr<bpw::Coordinator> coord = std::move(coordinator).value();
  if (config.traced) {
    coord = std::make_unique<TimingCoordinator>(std::move(coord));
  }

  Stack stack;
  stack.storage = std::make_unique<bpw::StorageEngine>(config.footprint_pages,
                                                       config.page_size);
  bpw::BufferPoolConfig pool_config;
  pool_config.num_frames = config.num_frames;
  pool_config.page_size = config.page_size;
  stack.pool = std::make_unique<BufferPool>(pool_config, stack.storage.get(),
                                            std::move(coord));
  auto session = stack.pool->CreateSession();
  const uint64_t warm = std::min<uint64_t>(config.footprint_pages,
                                           config.num_frames);
  bpw::Status status = stack.pool->Prewarm(*session, 0, warm);
  if (!status.ok()) return status;
  stack.pool->FlushSession(*session);
  return stack;
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  succeeded += other.succeeded;
  stamp_errors += other.stamp_errors;
  hits += other.hits;
  misses += other.misses;
  transactions += other.transactions;
  tx_ns.Merge(other.tx_ns);
}

namespace {

/// True if the page's header stamp names `page` (StorageEngine::StampPage
/// layout: word 0 mixes the page id with word 1, the version).
bool StampNamesPage(const uint8_t* data, PageId page) {
  const auto [word, version] = bpw::StorageEngine::ReadStamp(data);
  uint64_t expected[2];
  bpw::StorageEngine::StampPage(expected, sizeof(expected), page, version);
  return word == expected[0];
}

/// One closed-loop access: fetch, check the stamp, mark dirty on a write,
/// release. With kTraced and a sampled transaction open, the fetch and the
/// release become spans.
template <bool kTraced>
inline void Access(BufferPool& pool, BufferPool::Session& session,
                   uint32_t packed, Tally& tally, SpanRecorder* recorder) {
  const PageId page = packed & kPageMask;
  ++tally.attempted;
  bool sampled = false;
  uint64_t hits_before = 0;
  if constexpr (kTraced) {
    sampled = recorder->in_tx();
    if (sampled) {
      hits_before = session.stats().hits;
      recorder->BeginFetch(NowNanos());
    }
  }
  auto handle = pool.FetchPage(session, page);
  if (!handle.ok()) {
    if (sampled) recorder->CancelFetch();
    ++tally.failed;
    return;
  }
  if (sampled) {
    recorder->EndFetch(NowNanos(), session.stats().hits != hits_before);
  }
  ++tally.succeeded;
  bpw::PageHandle& pinned = handle.value();
  if (!StampNamesPage(pinned.data(), page)) ++tally.stamp_errors;
  if (packed & kWriteBit) pinned.MarkDirty();
  if (sampled) {
    const uint64_t start = NowNanos();
    pinned.Release();
    recorder->RecordRelease(start, NowNanos());
  } else {
    pinned.Release();
  }
}

/// Moves the session's hit/miss counts accrued since `base` into `tally`.
void TakeSessionCounts(const BufferPool::Session& session,
                       bpw::AccessStats& base, Tally& tally) {
  const bpw::AccessStats& now = session.stats();
  tally.hits += now.hits - base.hits;
  tally.misses += now.misses - base.misses;
  base = now;
}

constexpr int kWarmupWindow = -1;

template <bool kTraced>
void Worker(BufferPool& pool, const Stream& stream,
            const std::atomic<int>& window, const TimedRunConfig& config,
            SpanRecorder* recorder, std::vector<Tally>& out) {
  auto session = pool.CreateSession();
  if constexpr (kTraced) SpanRecorder::Install(recorder);
  Tally warmup;
  Tally* tally = &warmup;
  int seen = kWarmupWindow;
  bpw::AccessStats base;
  uint64_t tx_start = 0;
  bool in_tx = false;
  uint64_t tx_index = 0;
  const size_t n = stream.size();
  for (size_t pos = 0;; pos = pos + 1 == n ? 0 : pos + 1) {
    const uint32_t packed = stream[pos];
    if (packed & kBeginBit) {
      const uint64_t now = NowNanos();
      if (in_tx) {
        tally->tx_ns.Record(now - tx_start);
        ++tally->transactions;
      }
      if constexpr (kTraced) {
        if (recorder->in_tx()) recorder->EndTx(now);
      }
      const int current = window.load(std::memory_order_relaxed);
      if (current != seen) {
        TakeSessionCounts(*session, base, *tally);
        if (current >= config.windows) break;
        seen = current;
        tally = &out[static_cast<size_t>(current)];
      }
      tx_start = now;
      in_tx = true;
      if constexpr (kTraced) {
        if (seen != kWarmupWindow && ++tx_index % config.sample_every == 0) {
          recorder->BeginTx(now);
        }
      }
    }
    Access<kTraced>(pool, *session, packed, *tally, recorder);
  }
  if constexpr (kTraced) {
    // The end-of-run flush commits the slot's queued accesses; it is
    // recorded as a transaction of its own holding one core.flush_slot.
    recorder->BeginTx(NowNanos());
    pool.FlushSession(*session);
    recorder->EndTx(NowNanos());
    SpanRecorder::Install(nullptr);
  } else {
    pool.FlushSession(*session);
  }
}

/// Steal time accumulated so far over all CPUs, from /proc/stat; 0 when
/// the kernel does not report it.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  // cpu user nice system idle iowait irq softirq steal
  uint64_t fields[8] = {};
  stat >> cpu;
  for (uint64_t& field : fields) stat >> field;
  if (!stat || cpu != "cpu") return 0;
  return static_cast<double>(fields[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace

Tally ReplayCount(BufferPool& pool, const Stream& stream, uint64_t accesses) {
  auto session = pool.CreateSession();
  Tally tally;
  for (uint64_t i = 0; i < accesses; ++i) {
    Access<false>(pool, *session, stream[i % stream.size()], tally, nullptr);
  }
  pool.FlushSession(*session);
  bpw::AccessStats base;
  TakeSessionCounts(*session, base, tally);
  return tally;
}

TimedRunResult RunTimed(BufferPool& pool, const Streams& streams,
                        const TimedRunConfig& config) {
  using Clock = std::chrono::steady_clock;
  const size_t workers = streams.per_worker.size();
  TimedRunResult result;
  std::vector<std::vector<Tally>> outs(
      workers, std::vector<Tally>(static_cast<size_t>(config.windows)));
  if (config.traced) {
    for (size_t t = 0; t < workers; ++t) {
      result.recorders.push_back(std::make_unique<SpanRecorder>(
          static_cast<uint32_t>(t), config.span_retain));
    }
  }

  std::atomic<int> window{kWarmupWindow};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t t = 0; t < workers; ++t) {
    if (config.traced) {
      threads.emplace_back(Worker<true>, std::ref(pool),
                           std::cref(streams.per_worker[t]), std::cref(window),
                           std::cref(config), result.recorders[t].get(),
                           std::ref(outs[t]));
    } else {
      threads.emplace_back(Worker<false>, std::ref(pool),
                           std::cref(streams.per_worker[t]), std::cref(window),
                           std::cref(config), nullptr, std::ref(outs[t]));
    }
  }

  const auto to_duration = [](double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  };
  std::this_thread::sleep_for(to_duration(config.warmup_s));

  bpw::obs::MetricsRegistry& registry = bpw::obs::MetricsRegistry::Default();
  const uint64_t evictions_before = pool.evictions();
  const uint64_t writebacks_before = pool.writebacks();
  const uint64_t races_before = pool.eviction_races();
  const bpw::LockStats lock_before = pool.coordinator().lock_stats();
  const bpw::StorageStats storage_before = pool.storage().stats();
  const bpw::obs::MetricsSnapshot metrics_before = registry.Snapshot();

  const double window_s = config.measure_s / config.windows;
  const Clock::time_point start = Clock::now();
  std::vector<Clock::time_point> marks{start};
  std::vector<double> steal{StealSeconds()};
  for (int w = 0; w < config.windows; ++w) {
    window.store(w, std::memory_order_relaxed);
    std::this_thread::sleep_until(start + to_duration(window_s * (w + 1)));
    marks.push_back(Clock::now());
    steal.push_back(StealSeconds());
  }
  window.store(config.windows, std::memory_order_relaxed);
  for (auto& thread : threads) thread.join();

  result.evictions = pool.evictions() - evictions_before;
  result.writebacks = pool.writebacks() - writebacks_before;
  result.eviction_races = pool.eviction_races() - races_before;
  const bpw::LockStats lock_after = pool.coordinator().lock_stats();
  result.lock.acquisitions = lock_after.acquisitions - lock_before.acquisitions;
  result.lock.contentions = lock_after.contentions - lock_before.contentions;
  result.lock.trylock_failures =
      lock_after.trylock_failures - lock_before.trylock_failures;
  result.lock.hold_nanos = lock_after.hold_nanos - lock_before.hold_nanos;
  result.lock.wait_nanos = lock_after.wait_nanos - lock_before.wait_nanos;
  const bpw::StorageStats storage_after = pool.storage().stats();
  result.storage.reads = storage_after.reads - storage_before.reads;
  result.storage.writes = storage_after.writes - storage_before.writes;
  result.metrics = registry.Snapshot().DeltaFrom(metrics_before);

  result.windows.resize(static_cast<size_t>(config.windows));
  for (int w = 0; w < config.windows; ++w) {
    for (size_t t = 0; t < workers; ++t) {
      result.windows[w].Merge(outs[t][w]);
    }
    result.window_seconds.push_back(
        std::chrono::duration<double>(marks[w + 1] - marks[w]).count());
    result.window_steal_seconds.push_back(steal[w + 1] - steal[w]);
    result.total.Merge(result.windows[w]);
  }
  result.measure_seconds =
      std::chrono::duration<double>(marks.back() - start).count();
  return result;
}

}  // namespace perfbench
