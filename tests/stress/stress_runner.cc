#include "stress/stress_runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "buffer/buffer_pool.h"
#include "sync/mutex.h"
#include "testing/schedule_point.h"
#include "util/random.h"

namespace bpw {
namespace stress {

namespace {

constexpr uint64_t kStampMix = 0x9E3779B97F4A7C15ULL;

// SplitMix64 finalizer, for decorrelating (seed, stream) pairs.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Op {
  enum Kind { kFetch, kDrop } kind = kFetch;
  PageId page = 0;
  bool dirty = false;
};

// Page-space layout: the first half is read-only (stamps stay at version 0,
// so every reader can verify them byte-exactly even while other threads
// write elsewhere); the second half is writable, each page owned by exactly
// one thread so version checks are race-free. The hot set lives inside the
// read-only half — the hottest traffic gets the strictest checking.
struct Layout {
  uint64_t pages;
  uint64_t writable_base;  // pages >= this may be dirtied
  uint64_t hot_span;

  explicit Layout(uint64_t num_pages)
      : pages(num_pages),
        writable_base(num_pages / 2),
        hot_span(std::max<uint64_t>(1, num_pages / 8)) {}
};

// Pre-generates every thread's op sequence so the serialized oracle can
// replay the identical access stream.
std::vector<std::vector<Op>> GenerateTraces(const StressOptions& o,
                                            const Layout& layout) {
  std::vector<std::vector<Op>> traces(o.threads);
  for (int t = 0; t < o.threads; ++t) {
    Random rng(Mix(o.seed) ^ Mix(0x7A11 + t));
    traces[t].reserve(o.ops_per_thread);
    for (int i = 0; i < o.ops_per_thread; ++i) {
      Op op;
      if (rng.Bernoulli(o.drop_probability)) {
        op.kind = Op::kDrop;
        op.page = rng.Uniform(layout.pages);
      } else if (rng.Bernoulli(o.hot_probability)) {
        op.page = rng.Uniform(layout.hot_span);
      } else {
        op.page = rng.Uniform(layout.pages);
      }
      if (op.kind == Op::kFetch && op.page >= layout.writable_base &&
          (op.page - layout.writable_base) % static_cast<uint64_t>(o.threads) ==
              static_cast<uint64_t>(t)) {
        op.dirty = rng.Bernoulli(o.dirty_probability);
      }
      traces[t].push_back(op);
    }
  }
  return traces;
}

std::unique_ptr<BufferPool> MakePool(const StressOptions& o,
                                     StorageEngine* storage,
                                     const SystemConfig& system, bool mutated,
                                     Status* error) {
  auto coordinator = CreateCoordinator(system, o.frames);
  if (!coordinator.ok()) {
    *error = coordinator.status();
    return nullptr;
  }
  BufferPoolConfig config;
  config.num_frames = o.frames;
  config.page_size = o.page_size;
  config.test_skip_victim_revalidation = mutated;
  return std::make_unique<BufferPool>(config, storage,
                                      std::move(coordinator).value());
}

// Single-threaded serialized replay of the same traces (round-robin
// interleave), no faults, no perturbation: the hit-ratio oracle. Returns a
// negative value if the stack cannot be constructed.
double OracleHitRatio(const StressOptions& o,
                      const std::vector<std::vector<Op>>& traces) {
  StorageEngine storage(o.pages, o.page_size);
  SystemConfig serialized;
  serialized.policy = o.system.policy;
  serialized.coordinator = "serialized";
  Status error;
  auto pool = MakePool(o, &storage, serialized, /*mutated=*/false, &error);
  if (pool == nullptr) return -1.0;
  auto session = pool->CreateSession();
  for (int i = 0; i < o.ops_per_thread; ++i) {
    for (int t = 0; t < o.threads; ++t) {
      const Op& op = traces[t][i];
      if (op.kind == Op::kDrop) {
        (void)pool->DropPage(*session, op.page);
      } else {
        (void)pool->FetchPage(*session, op.page);
      }
    }
  }
  return session->stats().hit_ratio();
}

}  // namespace

std::vector<StressConfig> DefaultStressMatrix() {
  std::vector<StressConfig> matrix;
  const std::vector<std::string> policies = {"lru", "2q", "lirs", "arc",
                                             "clock"};
  for (const std::string& policy : policies) {
    {
      SystemConfig c;
      c.policy = policy;
      c.coordinator = "serialized";
      matrix.push_back({"serialized/" + policy, c});
    }
    {
      SystemConfig c;
      c.policy = policy;
      c.coordinator = "bp-wrapper";
      matrix.push_back({"bp-wrapper/" + policy, c});
    }
    {
      SystemConfig c;
      c.policy = policy;
      c.coordinator = "bp-wrapper";
      c.prefetch = true;
      // A tiny queue forces frequent commits and the blocking-Lock fallback.
      c.queue_size = 8;
      c.batch_threshold = 4;
      matrix.push_back({"bp-wrapper+pre-s8/" + policy, c});
    }
  }
  for (const char* policy : {"clock", "gclock"}) {
    SystemConfig c;
    c.policy = policy;
    c.coordinator = "clock-lockfree";
    matrix.push_back({std::string("clock-lockfree/") + policy, c});
  }
  return matrix;
}

StressResult RunStress(const StressOptions& options) {
  StressResult result;
  const Layout layout(options.pages);
  auto fail = [&](const std::string& what) {
    if (result.ok) {
      result.ok = false;
      result.failure = what + " (reproduce with --seed=" +
                       std::to_string(options.seed) + ")";
    }
  };

  const std::vector<std::vector<Op>> traces = GenerateTraces(options, layout);

  StorageEngine storage(options.pages, options.page_size);

  testing::FaultPlan plan = options.faults;
  plan.seed = Mix(options.seed) ^ Mix(0xFA017);
  std::unique_ptr<testing::FaultInjector> injector;
  if (plan.enabled()) {
    injector = std::make_unique<testing::FaultInjector>(plan);
    storage.SetFaultInjector(injector.get());
  }

  Status error;
  auto pool = MakePool(options, &storage, options.system,
                       options.mutate_skip_victim_revalidation, &error);
  if (pool == nullptr) {
    fail("coordinator construction failed: " + error.ToString());
    return result;
  }

  std::unique_ptr<testing::ScopedScheduleController> controller;
  if (options.schedule_perturbation) {
    testing::ScheduleOptions sched = options.schedule;
    sched.seed = options.seed;
    controller = std::make_unique<testing::ScopedScheduleController>(sched);
  }

  std::atomic<uint64_t> io_errors{0};
  std::atomic<uint64_t> verify_mismatches{0};
  std::atomic<uint64_t> unexpected_errors{0};
  Mutex failure_mu;
  std::string first_worker_failure;

  // Highest version each thread wrote to each page it owns (merged after
  // join for the lost-update scan). Sized before any worker starts so the
  // outer vector is never resized concurrently.
  std::vector<std::vector<uint64_t>> last_written(options.threads);
  for (auto& per_thread : last_written) per_thread.assign(options.pages, 0);

  std::vector<std::thread> workers;
  workers.reserve(options.threads);
  for (int t = 0; t < options.threads; ++t) {
    workers.emplace_back([&, t] {
      testing::ScheduleController::BindCurrentThread(static_cast<uint64_t>(t));
      auto session = pool->CreateSession();
      uint64_t next_version = 1;
      for (const Op& op : traces[t]) {
        if (op.kind == Op::kDrop) {
          const Status drop = pool->DropPage(*session, op.page);
          // NotFound (never resident) and FailedPrecondition (pinned by a
          // racing thread) are expected; anything else is a harness failure.
          if (!drop.ok() && !drop.IsNotFound() &&
              drop.code() != StatusCode::kFailedPrecondition) {
            unexpected_errors.fetch_add(1, std::memory_order_relaxed);
            MutexGuard g(failure_mu);
            if (first_worker_failure.empty()) {
              first_worker_failure = "DropPage: " + drop.ToString();
            }
          }
          continue;
        }
        auto handle = pool->FetchPage(*session, op.page);
        if (!handle.ok()) {
          if (handle.status().IsIOError()) {
            io_errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          unexpected_errors.fetch_add(1, std::memory_order_relaxed);
          MutexGuard g(failure_mu);
          if (first_worker_failure.empty()) {
            first_worker_failure = "FetchPage: " + handle.status().ToString();
          }
          continue;
        }
        uint8_t* data = handle->data();
        const bool owned =
            op.page >= layout.writable_base &&
            (op.page - layout.writable_base) %
                    static_cast<uint64_t>(options.threads) ==
                static_cast<uint64_t>(t);
        // Only touch page *bytes* we are entitled to: the read-only half
        // (nobody ever stamps it) or this thread's own writable pages
        // (single writer). A non-owned writable page may be mid-StampPage
        // under a shared pin — content-level synchronization is the
        // caller's job in a real buffer manager, so the harness fetches
        // such pages (shared-pin coverage) but must not read their bytes.
        auto verify = [&] {
          if (op.page < layout.writable_base) {
            // Read-only page: must still carry its initialization stamp.
            const auto [word, version] = StorageEngine::ReadStamp(data);
            if (word != op.page * kStampMix || version != 0) {
              verify_mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (owned && (op.dirty || last_written[t][op.page] > 0)) {
            // A page this thread owns: the stamp must be internally
            // consistent and no newer than what this thread (the only
            // writer) produced.
            const auto [word, version] = StorageEngine::ReadStamp(data);
            if (word != op.page * kStampMix + version ||
                version > last_written[t][op.page]) {
              verify_mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        };
        verify();
        if (op.dirty) {
          const uint64_t v = next_version++;
          StorageEngine::StampPage(data, options.page_size, op.page, v);
          handle->MarkDirty();
          last_written[t][op.page] = v;
        }
        // Hold the pin across one more perturbation point and check again:
        // under a pin, only this thread's own stamp may change the bytes.
        // This catches an eviction that overwrites a pinned frame after the
        // first look, not only one that lands before it.
        BPW_SCHEDULE_POINT("stress.hold_pin");
        verify();
      }
      pool->FlushSession(*session);
    });
  }
  for (auto& w : workers) w.join();

  result.io_errors = io_errors.load();
  result.verify_mismatches = verify_mismatches.load();
  result.evictions = pool->evictions();
  if (controller != nullptr) {
    result.schedule_points = controller->controller().points_observed();
    result.perturbations = controller->controller().perturbations();
    controller.reset();  // don't perturb the post-run checks or the oracle
  }
  if (injector != nullptr) result.fault_stats = injector->stats();

  // Misses are counted as storage reads: every miss issues at most one read
  // (single-flight shares loads, so reads <= true misses; the oracle is
  // single-threaded, where the two are equal — hence the wide band below).
  uint64_t fetches = 0;
  for (const auto& trace : traces) {
    for (const Op& op : trace) fetches += (op.kind == Op::kFetch) ? 1 : 0;
  }
  result.misses = storage.stats().reads;
  result.hits = fetches >= result.misses ? fetches - result.misses : 0;
  result.hit_ratio = fetches == 0 ? 0.0
                                  : static_cast<double>(result.hits) /
                                        static_cast<double>(fetches);

  // ---- Post-run invariant checks (quiesced) -----------------------------
  if (!first_worker_failure.empty()) {
    fail("worker error: " + first_worker_failure);
  } else if (unexpected_errors.load() > 0) {
    fail("unexpected worker errors: " +
         std::to_string(unexpected_errors.load()));
  }
  if (result.verify_mismatches > 0 && !plan.enabled()) {
    fail("data verification failed " +
         std::to_string(result.verify_mismatches) +
         " times with no faults injected");
  }
  if (injector == nullptr && result.io_errors > 0) {
    fail("I/O errors surfaced with no injector installed");
  }

  const Status integrity = pool->CheckIntegrity();
  if (!integrity.ok()) {
    fail("CheckIntegrity: " + integrity.ToString());
  }

  // Flush everything back. With write faults the first attempts may fail
  // (a failed write-back keeps the page dirty), so retry until clean.
  Status flush;
  for (int attempt = 0; attempt < 200; ++attempt) {
    flush = pool->FlushAll();
    if (flush.ok() || !flush.IsIOError() || !plan.enabled()) break;
  }
  if (!flush.ok()) {
    fail("FlushAll: " + flush.ToString());
  }

  // Lost-update scan: without faults or drops, storage must now hold each
  // owned page's last written version. (Drops legitimately discard dirty
  // contents; faults legitimately tear or fail writes.)
  if (!plan.enabled() && options.drop_probability == 0.0 && flush.ok()) {
    for (uint64_t page = layout.writable_base; page < layout.pages; ++page) {
      uint64_t latest = 0;
      for (int t = 0; t < options.threads; ++t) {
        latest = std::max(latest, last_written[t][page]);
      }
      if (latest == 0) continue;
      if (storage.VerificationWord(page) != page * kStampMix + latest) {
        fail("lost update on page " + std::to_string(page));
        break;
      }
    }
  }

  // Fault accounting: every torn stamp in storage must be covered by an
  // injected torn write (failed writes leave the old, consistent stamp).
  // Re-snapshot the injector first: the FlushAll retries above also go
  // through it, and a tear drawn there is just as legitimate as one drawn
  // mid-run.
  if (injector != nullptr) result.fault_stats = injector->stats();
  {
    uint64_t torn_pages = 0;
    for (uint64_t page = 0; page < layout.pages; ++page) {
      if (!storage.StampConsistent(page)) ++torn_pages;
    }
    if (torn_pages > result.fault_stats.torn_writes) {
      fail("found " + std::to_string(torn_pages) + " torn pages but only " +
           std::to_string(result.fault_stats.torn_writes) +
           " torn writes were injected");
    }
  }

  // Hit-ratio sanity against the serialized oracle. Skipped when faults are
  // on (injected read failures change residency unpredictably) and under
  // mutation (the mutated pool is *supposed* to misbehave).
  if (options.check_hit_ratio_oracle && !plan.enabled() &&
      !options.mutate_skip_victim_revalidation) {
    result.oracle_hit_ratio = OracleHitRatio(options, traces);
    if (result.oracle_hit_ratio < 0) {
      fail("oracle stack failed to construct");
    } else if (std::abs(result.hit_ratio - result.oracle_hit_ratio) >
               options.hit_ratio_tolerance) {
      fail("hit ratio " + std::to_string(result.hit_ratio) +
           " strayed more than " + std::to_string(options.hit_ratio_tolerance) +
           " from serialized oracle " +
           std::to_string(result.oracle_hit_ratio));
    }
  }

  return result;
}

}  // namespace stress
}  // namespace bpw
