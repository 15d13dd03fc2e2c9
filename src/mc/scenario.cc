#include "mc/scenario.h"

#include <memory>
#include <sstream>
#include <thread>

#include "buffer/buffer_pool.h"
#include "core/bp_wrapper.h"
#include "core/serialized_coordinator.h"
#include "core/shared_queue_coordinator.h"
#include "policy/policy_factory.h"
#include "storage/storage_engine.h"
#include "util/fingerprint.h"

namespace bpw {
namespace mc {

namespace {

constexpr size_t kPageSize = 256;

std::unique_ptr<Coordinator> BuildCoordinator(const ScenarioConfig& config,
                                              size_t frames, bool faithful,
                                              std::string* error) {
  auto policy = CreatePolicy(config.policy, frames);
  if (!policy.ok()) {
    *error = policy.status().ToString();
    return nullptr;
  }
  if (config.coordinator == "serialized") {
    return std::make_unique<SerializedCoordinator>(std::move(policy).value());
  }
  if (config.coordinator == "shared-queue") {
    SharedQueueCoordinator::Options options;
    options.queue_size = config.queue_size;
    options.batch_threshold = config.batch_threshold;
    options.test_commit_without_lock =
        !faithful && config.mutate_commit_without_lock;
    return std::make_unique<SharedQueueCoordinator>(std::move(policy).value(),
                                                    options);
  }
  if (config.coordinator == "bp-wrapper") {
    BpWrapperCoordinator::Options options;
    options.queue_size = config.queue_size;
    options.batch_threshold = config.batch_threshold;
    options.test_skip_commit_before_victim =
        !faithful && config.mutate_skip_commit_before_victim;
    return std::make_unique<BpWrapperCoordinator>(std::move(policy).value(),
                                                  options);
  }
  *error = "unknown coordinator '" + config.coordinator +
           "' (serialized, shared-queue, bp-wrapper)";
  return nullptr;
}

/// One scenario stack, built identically for every execution.
struct Stack {
  std::unique_ptr<StorageEngine> storage;
  std::unique_ptr<BufferPool> pool;
  Coordinator* coordinator = nullptr;  // owned by pool
  std::vector<std::unique_ptr<BufferPool::Session>> sessions;

  static std::unique_ptr<Stack> Build(const ScenarioConfig& config,
                                      bool faithful, std::string* error) {
    auto stack = std::make_unique<Stack>();
    stack->storage = std::make_unique<StorageEngine>(
        static_cast<uint64_t>(config.pages), kPageSize,
        StorageLatencyModel::None(), /*materialize=*/true);
    // Pre-stamp every page so a worker can verify that the bytes a handle
    // exposes belong to the page it asked for.
    std::vector<uint8_t> buf(kPageSize, 0);
    for (PageId p = 0; p < static_cast<PageId>(config.pages); ++p) {
      StorageEngine::StampPage(buf.data(), kPageSize, p, /*version=*/1);
      Status status = stack->storage->WritePage(p, buf.data());
      if (!status.ok()) {
        *error = status.ToString();
        return nullptr;
      }
    }
    auto coordinator = BuildCoordinator(
        config, static_cast<size_t>(config.frames), faithful, error);
    if (coordinator == nullptr) return nullptr;
    stack->coordinator = coordinator.get();
    BufferPoolConfig pool_config;
    pool_config.num_frames = static_cast<size_t>(config.frames);
    pool_config.page_size = kPageSize;
    pool_config.eviction_retries = config.eviction_retries;
    pool_config.test_skip_victim_revalidation =
        !faithful && config.mutate_skip_victim_revalidation;
    stack->pool = std::make_unique<BufferPool>(pool_config, stack->storage.get(),
                                               std::move(coordinator));
    // Sessions are created on the scenario thread, not the workers, so the
    // coordinator sees registrations in a fixed order regardless of
    // schedule.
    for (int t = 0; t < config.threads; ++t) {
      stack->sessions.push_back(stack->pool->CreateSession());
    }
    return stack;
  }
};

struct WorkerLog {
  std::vector<char> outcomes;  // 'H' / 'M' per completed op
  std::string failure;         // first fetch error or stamp mismatch
};

/// Runs `thread`'s trace against the stack. `sched` may be null (reference
/// replays run unscheduled on the caller's thread).
void RunTrace(BufferPool& pool, BufferPool::Session& session,
              const std::vector<PageId>& trace, CooperativeScheduler* sched,
              WorkerLog& log) {
  for (size_t j = 0; j < trace.size(); ++j) {
    if (sched != nullptr) sched->MarkProgress(static_cast<int>(j));
    const PageId page = trace[j];
    const uint64_t misses_before = session.stats().misses;
    auto handle = pool.FetchPage(session, page);
    // No schedule point separates FetchPage's full-pool check from this
    // one, so under the model checker the pin census is exact.
    if (!handle.ok() &&
        handle.status().code() == StatusCode::kResourceExhausted &&
        pool.pinned_frames() == pool.num_frames()) {
      log.outcomes.push_back('X');  // a genuinely full pool
      continue;
    }
    if (!handle.ok()) {
      if (log.failure.empty() && (sched == nullptr || !sched->aborted())) {
        std::ostringstream out;
        out << "op " << j << ": FetchPage(" << page
            << ") failed: " << handle.status().ToString() << " ("
            << pool.pinned_frames() << " of " << pool.num_frames()
            << " frames pinned)";
        log.failure = out.str();
      }
      continue;
    }
    const auto [word, version] = StorageEngine::ReadStamp(handle.value().data());
    if (word != page * 0x9E3779B97F4A7C15ULL + version) {
      if (log.failure.empty() && (sched == nullptr || !sched->aborted())) {
        std::ostringstream out;
        out << "op " << j << ": page " << page
            << " handle holds foreign bytes (stamp word " << word
            << ", version " << version
            << ") — a pinned frame was overwritten";
        log.failure = out.str();
      }
    }
    log.outcomes.push_back(session.stats().misses == misses_before ? 'H' : 'M');
  }
}

std::string OutcomeString(const std::vector<char>& outcomes) {
  return std::string(outcomes.begin(), outcomes.end());
}

}  // namespace

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kNone: return "none";
    case ViolationKind::kInvariant: return "invariant";
    case ViolationKind::kRace: return "race";
    case ViolationKind::kDeadlock: return "deadlock";
    case ViolationKind::kLivelock: return "livelock";
    case ViolationKind::kError: return "error";
  }
  return "?";
}

StatusOr<ScenarioConfig> Scenario::Preset(const std::string& name) {
  ScenarioConfig config;
  config.name = name;
  if (name == "eviction") {
    // The acceptance scenario: 2 threads, 4 pages, 2 frames, shared queue
    // with batch threshold 2. Constant eviction pressure; every miss path
    // and the victim-revalidation window are exercised.
    return config;
  }
  if (name == "handoff") {
    config.coordinator = "bp-wrapper";
    return config;
  }
  if (name == "race") {
    // All threads walk the same two resident-after-warmup pages: maximal
    // hit traffic through the shared queue, no evictions. This is the
    // stage for the commit-without-lock mutation.
    config.coordinator = "shared-queue";
    config.pages = 2;
    config.frames = 2;
    config.ops_per_thread = 4;
    return config;
  }
  if (name == "serial") {
    // Single-threaded, so the op order is schedule-independent and per-op
    // hit/miss must match a reference stack exactly. The trace is chosen
    // so the BP-Wrapper commit-before-victim rule is load-bearing: the hit
    // on page 0 sits queued when the miss on page 2 evicts. Committed
    // first (faithful), LRU evicts page 1 and the final op hits; skipped
    // (mutated), LRU evicts page 0 and the final op misses.
    config.coordinator = "bp-wrapper";
    config.threads = 1;
    config.pages = 3;
    config.frames = 2;
    config.trace = {0, 1, 0, 2, 0};
    config.check_serial_equivalence = true;
    return config;
  }
  if (name == "backpressure") {
    // Three fetchers, two frames, every op a miss until the pages settle:
    // one fetcher can miss while the other two hold both frames pinned, or
    // while a frame is mid-eviction. With no eviction retries (and so no
    // yield that would let the pin holders run first) such a miss goes
    // straight to the back-pressure path: register, retry once, then wait
    // for an unpin. A lost wakeup there leaves the waiter parked after its
    // peers finish, which the scheduler reports as a deadlock.
    config.coordinator = "serialized";
    config.threads = 3;
    config.pages = 4;
    config.frames = 2;
    config.ops_per_thread = 2;
    config.eviction_retries = 0;
    return config;
  }
  return Status::InvalidArgument("unknown scenario '" + name + "'");
}

std::vector<std::string> Scenario::PresetNames() {
  return {"eviction", "handoff", "race", "serial", "backpressure"};
}

std::vector<PageId> Scenario::TraceFor(int thread) const {
  if (!config_.trace.empty()) return config_.trace;
  std::vector<PageId> trace;
  trace.reserve(static_cast<size_t>(config_.ops_per_thread));
  for (int j = 0; j < config_.ops_per_thread; ++j) {
    trace.push_back(static_cast<PageId>(
        (thread * 2 + j) % config_.pages));
  }
  return trace;
}

ExecutionResult Scenario::RunOnce(CooperativeScheduler& sched,
                                  CooperativeScheduler::Chooser chooser) {
  ExecutionResult result;
  auto fail = [&result](ViolationKind kind, std::string message) {
    result.violated = true;
    result.violation.kind = kind;
    result.violation.message = std::move(message);
  };

  std::string build_error;
  auto stack = Stack::Build(config_, /*faithful=*/false, &build_error);
  if (stack == nullptr) {
    fail(ViolationKind::kError, "scenario setup failed: " + build_error);
    return result;
  }

  CooperativeScheduler::Config sched_config;
  sched_config.num_threads = config_.threads;
  sched_config.max_decisions = config_.max_decisions;
  sched.BeginRun(sched_config, std::move(chooser));

  BufferPool* pool = stack->pool.get();
  Coordinator* coordinator = stack->coordinator;
  auto* sessions = &stack->sessions;
  sched.SetFingerprintProvider(
      [pool, coordinator, sessions]() {
        Fingerprint fp;
        fp.Combine(pool->StateFingerprint());
        fp.Combine(coordinator->StateFingerprint());
        for (const auto& session : *sessions) {
          fp.Combine(coordinator->SlotStateFingerprint(session->slot()));
        }
        return fp.value();
      },
      coordinator->StateFingerprintSupported());

  std::vector<WorkerLog> logs(static_cast<size_t>(config_.threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(config_.threads));
  for (int t = 0; t < config_.threads; ++t) {
    workers.emplace_back([this, t, &sched, pool, sessions, &logs] {
      sched.AttachWorker(t);
      RunTrace(*pool, *(*sessions)[static_cast<size_t>(t)], TraceFor(t),
               &sched, logs[static_cast<size_t>(t)]);
      sched.DetachWorker(t);
    });
  }
  for (auto& worker : workers) worker.join();

  result.decisions = sched.decision_trace();
  result.signatures = sched.decision_signatures();
  result.races_checked = sched.certifier().accesses_checked();

  // --- Diagnosis (priority order; see header) -----------------------------
  if (sched.verdict() == SchedulerVerdict::kDeadlock) {
    fail(ViolationKind::kDeadlock, sched.verdict_detail());
    return result;
  }
  if (sched.verdict() == SchedulerVerdict::kLivelock) {
    fail(ViolationKind::kLivelock, sched.verdict_detail());
    return result;
  }
  if (sched.aborted()) {
    const std::string detail = sched.verdict_detail();
    if (!detail.empty()) {
      fail(ViolationKind::kError, detail);
    } else {
      result.pruned = true;  // explorer cut this branch; nothing to diagnose
    }
    return result;
  }

  for (int t = 0; t < config_.threads; ++t) {
    const WorkerLog& log = logs[static_cast<size_t>(t)];
    if (!log.failure.empty()) {
      fail(ViolationKind::kInvariant,
           "thread " + std::to_string(t) + ": " + log.failure);
      return result;
    }
  }

  Status integrity = stack->pool->CheckIntegrity();
  if (!integrity.ok()) {
    fail(ViolationKind::kInvariant,
         "post-run integrity check failed: " + integrity.ToString());
    return result;
  }

  if (config_.check_serial_equivalence && config_.threads == 1) {
    std::string ref_error;
    auto reference = Stack::Build(config_, /*faithful=*/true, &ref_error);
    if (reference == nullptr) {
      fail(ViolationKind::kError, "reference setup failed: " + ref_error);
      return result;
    }
    WorkerLog ref_log;
    // Runs on this (unregistered) thread: every scheduler hook no-ops.
    RunTrace(*reference->pool, *reference->sessions[0], TraceFor(0),
             /*sched=*/nullptr, ref_log);
    if (ref_log.outcomes != logs[0].outcomes) {
      fail(ViolationKind::kInvariant,
           "serial equivalence broken: per-op outcomes " +
               OutcomeString(logs[0].outcomes) + " vs reference " +
               OutcomeString(ref_log.outcomes));
      return result;
    }
  }

  if (!sched.certifier().races().empty()) {
    fail(ViolationKind::kRace, sched.certifier().races().front().ToString());
    return result;
  }

  return result;
}

}  // namespace mc
}  // namespace bpw
