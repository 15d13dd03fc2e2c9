#include "sim/sim_driver.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

#include "policy/policy_factory.h"
#include "util/random.h"

namespace bpw {

namespace {

// ------------------------------------------------------------------ SimLock
// A FIFO-granted, work-conserving exclusive resource in simulated time.
// Because the engine processes processors in non-decreasing time order,
// chaining requests onto `next_free` yields fair FIFO grants; the lock
// never idles while requests are queued (waiters spin or are woken in
// parallel on other processors — SMP behaviour). A waiter's own
// context-switch latency is booked into its wait accounting, not into the
// lock occupancy.
class SimLock {
 public:
  explicit SimLock(const SimCosts& costs) : costs_(costs) {}

  /// Blocking acquisition at time `t`, occupying the lock for
  /// `occupancy_nanos` (acquisition + critical section). Returns the
  /// caller's release time.
  uint64_t AcquireBlocking(uint64_t t, uint64_t occupancy_nanos,
                           bool measuring) {
    uint64_t enter;
    uint64_t occupy = occupancy_nanos;
    bool contended;
    if (next_free_ <= t) {
      enter = t;
      contended = false;
    } else {
      // The paper's §IV-D contention event: the request cannot be
      // satisfied immediately and the thread blocks.
      enter = next_free_;
      occupy += costs_.handoff;
      contended = true;
    }
    const uint64_t release = enter + occupy;
    next_free_ = release;
    if (measuring) {
      stats_.acquisitions++;
      stats_.hold_nanos += occupy;
      if (contended) {
        stats_.contentions++;
        stats_.wait_nanos += (enter - t) + costs_.context_switch;
      }
    }
    return release;
  }

  /// Non-blocking attempt at time `t`. On success the caller owns the lock
  /// for `occupancy_nanos`; returns true and sets *release.
  bool TryAcquire(uint64_t t, uint64_t occupancy_nanos, bool measuring,
                  uint64_t* release) {
    if (next_free_ > t) {
      if (measuring) stats_.trylock_failures++;
      return false;
    }
    *release = t + occupancy_nanos;
    next_free_ = *release;
    if (measuring) {
      stats_.acquisitions++;
      stats_.hold_nanos += occupancy_nanos;
    }
    return true;
  }

  const LockStats& stats() const { return stats_; }

 private:
  const SimCosts& costs_;
  uint64_t next_free_ = 0;
  LockStats stats_;
};

// --------------------------------------------------------------- Simulation
enum class Mode { kClockLockFree, kSerialized, kBpWrapper };

struct QueueEntry {
  PageId page;
  FrameId frame;
};

struct Proc {
  uint64_t now = 0;
  std::unique_ptr<TraceGenerator> trace;
  std::vector<QueueEntry> queue;  // BP-Wrapper private FIFO
  Random rng{0};

  bool in_tx = false;
  uint64_t tx_start = 0;
  uint64_t transactions = 0;  // measured transactions
  uint64_t hits = 0;
  uint64_t misses = 0;
  Histogram response;
  bool done = false;
};

struct ProcOrder {
  const std::vector<Proc>* procs;
  bool operator()(uint32_t a, uint32_t b) const {
    return (*procs)[a].now > (*procs)[b].now;  // min-heap on time
  }
};

class Simulation {
 public:
  Simulation(const DriverConfig& config, const SimCosts& costs)
      : config_(config), costs_(costs), lock_(costs_) {}

  StatusOr<DriverResult> Run();

 private:
  bool Measuring(uint64_t t) const {
    return t >= warmup_end_ && (count_mode_ || t < measure_end_);
  }

  /// Coherence-scaled cost: with P processors, a fraction (P-1)/P of
  /// acquisitions find the relevant cache lines in a remote cache. With
  /// numa_nodes > 1 the remote fraction further splits into same-node and
  /// cross-node transfers, the latter costing numa_remote_mult times as
  /// much (see SimCosts). The single-node path keeps the original integer
  /// math so pre-NUMA baselines reproduce bit-for-bit.
  uint64_t Coh(uint64_t nanos) const {
    const uint64_t p = config_.num_threads;
    if (p <= 1) return 0;
    const uint64_t nodes = std::max<uint64_t>(1, costs_.numa_nodes);
    if (nodes <= 1) return nanos * (p - 1) / p;
    const uint64_t node_size = (p + nodes - 1) / nodes;
    const uint64_t local_peers = node_size - 1;
    const uint64_t remote_peers = p > node_size ? p - node_size : 0;
    const double weight =
        (static_cast<double>(local_peers) +
         static_cast<double>(remote_peers) * costs_.numa_remote_mult) /
        static_cast<double>(p);
    return static_cast<uint64_t>(static_cast<double>(nanos) * weight);
  }

  /// Lock occupancy for one acquisition committing `n` policy updates.
  /// With prefetch, the [coh] warm-up components vanish from the critical
  /// section (§III-B); the acquisition CAS itself cannot be prefetched
  /// away.
  uint64_t Occupancy(size_t n_entries, uint64_t extra = 0) const {
    uint64_t occupancy = Coh(costs_.lock_grab) + extra +
                         static_cast<uint64_t>(n_entries) * costs_.policy_op;
    if (!prefetch_) {
      occupancy += Coh(costs_.warmup_acq) +
                   static_cast<uint64_t>(n_entries) * Coh(costs_.warmup_entry);
    }
    return occupancy;
  }

  /// Applies the queued accesses to the policy in arrival order, skipping
  /// entries whose frame was re-used since recording (§IV-B tag check).
  /// `measuring` gates the coord.* counters the way SimLock gates LockStats,
  /// so the metrics delta covers the measurement window only.
  void CommitQueue(Proc& proc, bool measuring);

  void StepAccess(Proc& proc);
  void HandleHit(Proc& proc, PageId page, FrameId frame);
  void HandleMiss(Proc& proc, PageId page, bool is_write);

  DriverConfig config_;
  SimCosts costs_;
  SimLock lock_;

  Mode mode_ = Mode::kSerialized;
  bool prefetch_ = false;
  size_t queue_size_ = 64;
  size_t batch_threshold_ = 32;

  std::unique_ptr<ReplacementPolicy> policy_;
  // Residency map: page -> frame and ready time (covers single-flight I/O:
  // a page being read in is "resident" with a ready_time in the future).
  struct Resident {
    FrameId frame;
    uint64_t ready_time;
  };
  std::unordered_map<PageId, Resident> residency_;
  std::vector<PageId> frame_page_;  // frame -> page (tag array)
  std::vector<bool> frame_dirty_;
  std::vector<FrameId> free_frames_;

  std::vector<Proc> procs_;
  bool count_mode_ = false;
  uint64_t warmup_end_ = 0;
  uint64_t measure_end_ = 0;

  uint64_t evictions_ = 0;
  uint64_t writebacks_ = 0;
  uint64_t stale_commits_ = 0;
  // Measured-window batch-commit statistics, mirroring the names the host
  // BpWrapperCoordinator registers with the metrics registry so BENCH json
  // carries one counter vocabulary across both execution modes.
  uint64_t commit_batches_ = 0;
  uint64_t committed_entries_ = 0;
  uint64_t lock_fallbacks_ = 0;
};

void Simulation::CommitQueue(Proc& proc, bool measuring) {
  // The simulator models contention in virtual time on one real thread, so
  // exclusive access to the policy always holds.
  policy_->AssertExclusiveAccess();
  uint64_t stale = 0;
  for (const QueueEntry& entry : proc.queue) {
    if (entry.frame < frame_page_.size() &&
        frame_page_[entry.frame] == entry.page) {
      policy_->OnHit(entry.page, entry.frame);
    } else {
      ++stale;
    }
  }
  if (measuring && !proc.queue.empty()) {
    ++commit_batches_;
    committed_entries_ += proc.queue.size() - stale;
    stale_commits_ += stale;
  }
  proc.queue.clear();
}

void Simulation::HandleHit(Proc& proc, PageId page, FrameId frame) {
  policy_->AssertExclusiveAccess();  // single real thread; see CommitQueue
  switch (mode_) {
    case Mode::kClockLockFree:
      proc.now += costs_.clock_hit;
      policy_->OnHit(page, frame);
      return;
    case Mode::kSerialized: {
      proc.now =
          lock_.AcquireBlocking(proc.now, Occupancy(1), Measuring(proc.now));
      policy_->OnHit(page, frame);
      return;
    }
    case Mode::kBpWrapper: {
      proc.now += costs_.record;
      proc.queue.push_back(QueueEntry{page, frame});
      if (proc.queue.size() < batch_threshold_) return;
      const uint64_t occupancy = Occupancy(proc.queue.size());
      uint64_t release;
      proc.now += costs_.trylock;
      bool measuring = Measuring(proc.now);
      if (lock_.TryAcquire(proc.now, occupancy, measuring, &release)) {
        proc.now = release;
        CommitQueue(proc, measuring);
        return;
      }
      if (proc.queue.size() < queue_size_) return;  // keep recording
      // The queue is full: the paper's blocking-Lock fallback.
      measuring = Measuring(proc.now);
      if (measuring) ++lock_fallbacks_;
      proc.now = lock_.AcquireBlocking(proc.now, occupancy, measuring);
      CommitQueue(proc, measuring);
      return;
    }
  }
}

void Simulation::HandleMiss(Proc& proc, PageId page, bool is_write) {
  policy_->AssertExclusiveAccess();  // single real thread; see CommitQueue
  // Phase 1: under the lock — commit any queued accesses, then pick a
  // victim (or take a free frame).
  FrameId frame;
  bool write_back = false;
  {
    const size_t queued = mode_ == Mode::kBpWrapper ? proc.queue.size() : 0;
    const bool need_evict = free_frames_.empty();
    const uint64_t occupancy =
        Occupancy(queued, need_evict ? costs_.victim_search : 0);
    const bool measuring = Measuring(proc.now);
    proc.now = lock_.AcquireBlocking(proc.now, occupancy, measuring);
    if (mode_ == Mode::kBpWrapper) CommitQueue(proc, measuring);
    if (need_evict) {
      auto victim = policy_->ChooseVictim([](FrameId) { return true; }, page);
      if (!victim.ok()) return;  // cannot happen: no pins in the simulator
      frame = victim->frame;
      residency_.erase(victim->page);
      frame_page_[frame] = kInvalidPageId;
      write_back = frame_dirty_[frame];
      frame_dirty_[frame] = false;
      ++evictions_;
    } else {
      frame = free_frames_.back();
      free_frames_.pop_back();
    }
  }
  // Outside the lock: write back the dirty victim, then read the page.
  if (write_back) {
    proc.now += costs_.io_write;
    ++writebacks_;
  }
  proc.now += costs_.io_read;

  // Phase 2: under the lock — register the new page.
  proc.now = lock_.AcquireBlocking(proc.now, Occupancy(1), Measuring(proc.now));
  policy_->OnMiss(page, frame);
  frame_page_[frame] = page;
  frame_dirty_[frame] = is_write;
  residency_[page] = Resident{frame, proc.now};
}

void Simulation::StepAccess(Proc& proc) {
  const PageAccess access = proc.trace->Next();

  if (access.begins_transaction) {
    if (proc.in_tx && Measuring(proc.tx_start)) {
      proc.response.Record(proc.now - proc.tx_start);
      ++proc.transactions;
    }
    proc.tx_start = proc.now;
    proc.in_tx = true;
    if (count_mode_ && proc.transactions >= config_.transactions_per_thread) {
      proc.done = true;
      return;
    }
  }

  // Non-critical-section work (hash lookup + transaction processing). The
  // §III-B prefetch issues overlap with this computation, which is why the
  // prefetched warm-up costs appear on neither side of the lock.
  uint64_t work = costs_.access_work;
  if (costs_.jitter > 0) {
    const double factor =
        1.0 + costs_.jitter * (2.0 * proc.rng.NextDouble() - 1.0);
    work = static_cast<uint64_t>(static_cast<double>(work) * factor);
  }
  proc.now += work;

  const bool measuring = Measuring(proc.now);
  auto it = residency_.find(access.page);
  if (it != residency_.end()) {
    // Hit — possibly on a page whose read-in completes later (single-flight
    // wait).
    if (it->second.ready_time > proc.now) proc.now = it->second.ready_time;
    const FrameId frame = it->second.frame;
    if (access.is_write) frame_dirty_[frame] = true;
    if (measuring) ++proc.hits;
    HandleHit(proc, access.page, frame);
  } else {
    if (measuring) ++proc.misses;
    HandleMiss(proc, access.page, access.is_write);
  }
}

StatusOr<DriverResult> Simulation::Run() {
  if (config_.num_threads == 0) {
    return Status::InvalidArgument("simulator needs >= 1 processor");
  }
  // Resolve the system under test.
  if (config_.system.coordinator == "clock-lockfree") {
    mode_ = Mode::kClockLockFree;
    if (config_.system.policy != "clock" &&
        config_.system.policy != "gclock") {
      return Status::InvalidArgument(
          "clock-lockfree simulation requires clock/gclock");
    }
  } else if (config_.system.coordinator == "serialized") {
    mode_ = Mode::kSerialized;
  } else if (config_.system.coordinator == "bp-wrapper") {
    mode_ = Mode::kBpWrapper;
  } else {
    return Status::InvalidArgument("unknown coordinator: " +
                                   config_.system.coordinator);
  }
  prefetch_ = config_.system.prefetch;
  queue_size_ = std::max<size_t>(1, config_.system.queue_size);
  batch_threshold_ =
      std::clamp<size_t>(config_.system.batch_threshold, 1, queue_size_);

  auto probe = CreateTrace(config_.workload, 0);
  if (probe == nullptr) {
    return Status::InvalidArgument("unknown workload: " +
                                   config_.workload.name);
  }
  const uint64_t footprint = probe->footprint_pages();
  probe.reset();
  const size_t num_frames =
      config_.num_frames != 0 ? config_.num_frames : footprint;

  auto policy = CreatePolicy(config_.system.policy, num_frames);
  if (!policy.ok()) return policy.status();
  policy_ = std::move(policy).value();

  frame_page_.assign(num_frames, kInvalidPageId);
  frame_dirty_.assign(num_frames, false);
  free_frames_.reserve(num_frames);
  for (size_t i = num_frames; i-- > 0;) {
    free_frames_.push_back(static_cast<FrameId>(i));
  }

  if (config_.prewarm) {
    // Fault pages in "before time zero": the paper's pre-warmed zero-miss
    // setting.
    policy_->AssertExclusiveAccess();  // single real thread; see CommitQueue
    const uint64_t warm = std::min<uint64_t>(footprint, num_frames);
    for (PageId p = 0; p < warm; ++p) {
      const FrameId frame = free_frames_.back();
      free_frames_.pop_back();
      policy_->OnMiss(p, frame);
      frame_page_[frame] = p;
      residency_[p] = Resident{frame, 0};
    }
  }

  count_mode_ = config_.transactions_per_thread > 0;
  warmup_end_ = count_mode_ ? 0 : config_.warmup_ms * 1'000'000ULL;
  measure_end_ = warmup_end_ + config_.duration_ms * 1'000'000ULL;

  procs_.resize(config_.num_threads);
  for (uint32_t i = 0; i < config_.num_threads; ++i) {
    procs_[i].trace = CreateTrace(config_.workload, i);
    procs_[i].rng.Reseed(config_.workload.seed * 977 + i);
  }

  std::priority_queue<uint32_t, std::vector<uint32_t>, ProcOrder> heap(
      ProcOrder{&procs_});
  for (uint32_t i = 0; i < config_.num_threads; ++i) heap.push(i);

  while (!heap.empty()) {
    const uint32_t idx = heap.top();
    heap.pop();
    Proc& proc = procs_[idx];
    if (proc.done) continue;
    if (!count_mode_ && proc.now >= measure_end_) continue;
    StepAccess(proc);
    if (!proc.done) heap.push(idx);
  }

  DriverResult result;
  result.measure_seconds =
      count_mode_ ? 0.0
                  : static_cast<double>(measure_end_ - warmup_end_) / 1e9;
  uint64_t max_now = 0;
  for (Proc& proc : procs_) {
    result.transactions += proc.transactions;
    result.hits += proc.hits;
    result.misses += proc.misses;
    result.response_histogram.Merge(proc.response);
    max_now = std::max(max_now, proc.now);
  }
  if (count_mode_) {
    result.measure_seconds = static_cast<double>(max_now) / 1e9;
  }
  result.accesses = result.hits + result.misses;
  if (result.measure_seconds > 0) {
    result.throughput_tps =
        static_cast<double>(result.transactions) / result.measure_seconds;
    result.accesses_per_sec =
        static_cast<double>(result.accesses) / result.measure_seconds;
  }
  result.avg_response_us = result.response_histogram.Mean() / 1000.0;
  result.p95_response_us = result.response_histogram.Percentile(95) / 1000.0;
  result.hit_ratio = result.accesses == 0
                         ? 0.0
                         : static_cast<double>(result.hits) /
                               static_cast<double>(result.accesses);
  result.lock = lock_.stats();
  if (result.accesses > 0) {
    result.contentions_per_million =
        static_cast<double>(result.lock.contentions) * 1e6 /
        static_cast<double>(result.accesses);
    result.lock_nanos_per_access =
        static_cast<double>(result.lock.hold_nanos +
                            result.lock.wait_nanos) /
        static_cast<double>(result.accesses);
  }
  result.evictions = evictions_;
  result.writebacks = writebacks_;
  // Same snapshot vocabulary the host driver pulls from the metrics
  // registry, so downstream tooling (bpw_bench, bench_compare) reads one
  // counter namespace regardless of execution mode. All deterministic.
  result.metrics.Add("coord.commit_batches",
                     static_cast<double>(commit_batches_));
  result.metrics.Add("coord.committed_entries",
                     static_cast<double>(committed_entries_));
  result.metrics.Add("coord.stale_commits",
                     static_cast<double>(stale_commits_));
  result.metrics.Add("coord.lock_fallbacks",
                     static_cast<double>(lock_fallbacks_));
  result.metrics.Add("buffer.hits", static_cast<double>(result.hits));
  result.metrics.Add("buffer.misses", static_cast<double>(result.misses));
  result.metrics.Add("buffer.evictions", static_cast<double>(evictions_));
  result.metrics.Add("buffer.writebacks", static_cast<double>(writebacks_));
  return result;
}

}  // namespace

StatusOr<DriverResult> RunSimulation(const DriverConfig& config,
                                     const SimCosts& costs) {
  Simulation sim(config, costs);
  return sim.Run();
}

}  // namespace bpw
