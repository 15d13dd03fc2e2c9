#include "mc/cooperative_scheduler.h"

#include <sstream>

#include "util/fingerprint.h"

// The scheduler's monitor is a raw std::mutex by necessity: going through
// the instrumented bpw wrappers would recurse every hook straight back
// into the scheduler. See the class comment.
// bpw-lint-allow-file(raw-mutex)

namespace bpw {
namespace mc {

namespace {

thread_local int g_worker_id = -1;

// Point names are string literals, but fingerprints must be stable across
// executions (and across ASLR), so hash contents, never pointers.
uint64_t HashPointName(const char* point) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  if (point != nullptr) {
    for (const char* p = point; *p != '\0'; ++p) {
      h ^= static_cast<unsigned char>(*p);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

const char* PhaseName(int phase) {
  switch (phase) {
    case 0: return "not-attached";
    case 1: return "runnable";
    case 2: return "running";
    case 3: return "blocked-lock";
    case 4: return "blocked-cv";
    case 5: return "finished";
    default: return "?";
  }
}

}  // namespace

int CurrentWorkerId() { return g_worker_id; }

CooperativeScheduler::CooperativeScheduler() = default;
CooperativeScheduler::~CooperativeScheduler() = default;

void CooperativeScheduler::BeginRun(const Config& config, Chooser chooser) {
  std::unique_lock<std::mutex> lk(mu_);
  config_ = config;
  chooser_ = std::move(chooser);
  fingerprint_provider_ = nullptr;
  fingerprint_supported_ = false;
  workers_.assign(static_cast<size_t>(config_.num_threads), Worker());
  attached_ = 0;
  running_ = -1;
  started_ = false;
  aborted_ = false;
  verdict_ = SchedulerVerdict::kNone;
  verdict_detail_.clear();
  decisions_ = 0;
  decision_trace_.clear();
  decision_signatures_.clear();
  lock_holder_.clear();
  lock_clock_.clear();
  cv_clock_.clear();
  certifier_ = RaceCertifier(static_cast<size_t>(config_.num_threads));
}

void CooperativeScheduler::SetFingerprintProvider(
    std::function<uint64_t()> provider, bool supported) {
  std::unique_lock<std::mutex> lk(mu_);
  fingerprint_provider_ = std::move(provider);
  fingerprint_supported_ = supported;
}

// --- Worker lifecycle ------------------------------------------------------

void CooperativeScheduler::AttachWorker(int id) {
  g_worker_id = id;
  std::unique_lock<std::mutex> lk(mu_);
  Worker& w = workers_[static_cast<size_t>(id)];
  w.phase = Phase::kRunnable;
  w.point = "worker.start";
  // Start each worker's clock at epoch 1 in its own component so "never
  // accessed" (epoch 0) is distinguishable from "accessed before any
  // synchronization" in the certifier's per-location clocks.
  w.clock = VectorClock(static_cast<size_t>(config_.num_threads));
  w.clock.Tick(static_cast<size_t>(id));
  ++attached_;
  if (attached_ == config_.num_threads) {
    started_ = true;
    // All workers present: run the first scheduling decision. Forced (no
    // thread was running), so it costs no preemption.
    ScheduleNextLocked(/*parking=*/-1, /*parking_enabled=*/false);
  }
  WaitUntilScheduledLocked(lk, id);
}

void CooperativeScheduler::DetachWorker(int id) {
  std::unique_lock<std::mutex> lk(mu_);
  Worker& w = workers_[static_cast<size_t>(id)];
  w.phase = Phase::kFinished;
  w.point = "worker.finish";
  if (running_ == id) running_ = -1;
  g_worker_id = -1;
  if (!aborted_) {
    ScheduleNextLocked(/*parking=*/-1, /*parking_enabled=*/false);
  }
}

void CooperativeScheduler::MarkProgress(int op_index) {
  const int id = g_worker_id;
  if (id < 0) return;
  std::unique_lock<std::mutex> lk(mu_);
  workers_[static_cast<size_t>(id)].op_index = op_index;
}

// --- Hook overrides --------------------------------------------------------

void CooperativeScheduler::Perturb(const char* point, const void* obj) {
  const int id = g_worker_id;
  if (id < 0) return;
  ParkAtPoint(id, point, obj);
}

void CooperativeScheduler::LockWillAcquire(const void* lock,
                                           const char* point) {
  const int id = g_worker_id;
  if (id < 0) return;
  std::unique_lock<std::mutex> lk(mu_);
  Worker& w = workers_[static_cast<size_t>(id)];
  // Park until the model says the lock is free. The real acquisition that
  // follows this hook then succeeds without blocking in the OS (nobody can
  // race us to it: execution is serialized until we pass LockAcquired).
  while (!aborted_ && lock_holder_.count(lock) != 0) {
    w.phase = Phase::kBlockedLock;
    w.waiting_lock = lock;
    w.point = point;
    w.obj = lock;
    ScheduleNextLocked(id, /*parking_enabled=*/false);
    WaitUntilScheduledLocked(lk, id);
  }
  w.waiting_lock = nullptr;
}

void CooperativeScheduler::LockAcquired(const void* lock, const char* point) {
  (void)point;
  const int id = g_worker_id;
  if (id < 0) return;
  std::unique_lock<std::mutex> lk(mu_);
  if (aborted_) return;
  lock_holder_[lock] = id;
  Worker& w = workers_[static_cast<size_t>(id)];
  auto it = lock_clock_.find(lock);
  if (it != lock_clock_.end()) w.clock.Join(it->second);  // release→acquire
}

void CooperativeScheduler::LockTryFailed(const void* lock, const char* point) {
  // A failed TryLock neither blocks nor synchronizes (no happens-before
  // edge): nothing to model. The BPW_SCHEDULE_POINT before the attempt
  // already made the outcome schedule-dependent.
  (void)lock;
  (void)point;
}

void CooperativeScheduler::LockReleased(const void* lock, const char* point) {
  const int id = g_worker_id;
  if (id < 0) return;
  std::unique_lock<std::mutex> lk(mu_);
  if (aborted_) return;
  Worker& w = workers_[static_cast<size_t>(id)];
  lock_holder_.erase(lock);
  lock_clock_[lock] = w.clock;
  w.clock.Tick(static_cast<size_t>(id));
  // A release enables blocked waiters — a mandatory decision point for any
  // exploration that wants to see handoffs.
  w.phase = Phase::kRunnable;
  w.point = point;
  w.obj = lock;
  ScheduleNextLocked(id, /*parking_enabled=*/true);
  WaitUntilScheduledLocked(lk, id);
}

void CooperativeScheduler::Yield(const char* point) {
  const int id = g_worker_id;
  if (id < 0) {
    std::this_thread::yield();
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  if (aborted_) return;
  Worker& w = workers_[static_cast<size_t>(id)];
  // CHESS's fairness rule: a yielding thread declares itself unable to make
  // progress until someone else runs. Marking it passive (a) removes it
  // from the candidate set while non-passive threads exist, and (b) makes
  // switching away from it free — it asked for the switch.
  w.passive = true;
  w.phase = Phase::kRunnable;
  w.point = point;
  w.obj = nullptr;
  ScheduleNextLocked(id, /*parking_enabled=*/true);
  WaitUntilScheduledLocked(lk, id);
}

void CooperativeScheduler::Access(const void* obj, const char* point,
                                  bool is_write) {
  const int id = g_worker_id;
  if (id < 0) return;
  std::unique_lock<std::mutex> lk(mu_);
  if (aborted_) return;
  certifier_.OnAccess(static_cast<size_t>(id),
                      workers_[static_cast<size_t>(id)].clock, obj, point,
                      is_write);
}

bool CooperativeScheduler::PrepareWait(const void* cv) {
  const int id = g_worker_id;
  if (id < 0) return false;  // unmanaged thread: use the real condvar
  std::unique_lock<std::mutex> lk(mu_);
  if (aborted_) return false;
  workers_[static_cast<size_t>(id)].waiting_cv = cv;
  return true;
}

bool CooperativeScheduler::CommitWait(const void* cv) {
  const int id = g_worker_id;
  if (id < 0) return true;
  std::unique_lock<std::mutex> lk(mu_);
  Worker& w = workers_[static_cast<size_t>(id)];
  if (aborted_) {
    w.waiting_cv = nullptr;
    return false;
  }
  if (!w.cv_signalled) {
    // Nothing arrived between PrepareWait and here: block until NotifyAll.
    w.phase = Phase::kBlockedCv;
    w.point = "cv.wait";
    w.obj = cv;
    ScheduleNextLocked(id, /*parking_enabled=*/false);
    WaitUntilScheduledLocked(lk, id);
    if (aborted_) {
      w.waiting_cv = nullptr;
      return false;
    }
  }
  w.cv_signalled = false;
  w.waiting_cv = nullptr;
  auto it = cv_clock_.find(cv);
  if (it != cv_clock_.end()) w.clock.Join(it->second);  // notify→wake
  return true;
}

void CooperativeScheduler::NotifyAll(const void* cv) {
  const int id = g_worker_id;
  if (id < 0) return;
  std::unique_lock<std::mutex> lk(mu_);
  if (aborted_) return;
  Worker& w = workers_[static_cast<size_t>(id)];
  cv_clock_[cv].Join(w.clock);
  w.clock.Tick(static_cast<size_t>(id));
  for (auto& other : workers_) {
    if (other.waiting_cv == cv) {
      other.cv_signalled = true;
      if (other.phase == Phase::kBlockedCv) other.phase = Phase::kRunnable;
    }
  }
}

// --- Results ---------------------------------------------------------------

bool CooperativeScheduler::aborted() const {
  std::unique_lock<std::mutex> lk(mu_);
  return aborted_;
}

SchedulerVerdict CooperativeScheduler::verdict() const {
  std::unique_lock<std::mutex> lk(mu_);
  return verdict_;
}

std::string CooperativeScheduler::verdict_detail() const {
  std::unique_lock<std::mutex> lk(mu_);
  return verdict_detail_;
}

uint64_t CooperativeScheduler::decisions_made() const {
  std::unique_lock<std::mutex> lk(mu_);
  return decisions_;
}

// --- Internals (mu_ held) --------------------------------------------------

bool CooperativeScheduler::EnabledLocked(int id) const {
  const Worker& w = workers_[static_cast<size_t>(id)];
  switch (w.phase) {
    case Phase::kRunnable:
      return true;
    case Phase::kBlockedLock:
      return lock_holder_.count(w.waiting_lock) == 0;
    default:
      return false;
  }
}

void CooperativeScheduler::BuildCandidatesLocked(int parking,
                                                 bool parking_enabled,
                                                 DecisionContext& ctx) const {
  std::vector<Candidate> all;
  bool any_nonpassive = false;
  for (int id = 0; id < config_.num_threads; ++id) {
    if (!EnabledLocked(id)) continue;
    const Worker& w = workers_[static_cast<size_t>(id)];
    Candidate c;
    c.thread = id;
    c.point = w.point;
    c.obj = w.obj;
    all.push_back(c);
    if (!w.passive) any_nonpassive = true;
  }
  // Fairness filter: while anyone non-passive can run, yielded threads wait
  // their turn (they declared they cannot progress alone).
  for (Candidate& c : all) {
    if (any_nonpassive && workers_[static_cast<size_t>(c.thread)].passive) {
      continue;
    }
    // Charging rule: switching away from an enabled, non-passive current
    // thread is a preemption; staying, forced switches, and post-yield
    // switches are free.
    c.preemptive = parking_enabled && parking >= 0 && c.thread != parking &&
                   !workers_[static_cast<size_t>(parking)].passive;
    ctx.candidates.push_back(c);
  }
  for (const Candidate& c : ctx.candidates) {
    if (c.thread == parking) {
      ctx.current = parking;
      break;
    }
  }
}

uint64_t CooperativeScheduler::ThreadStateHashLocked() const {
  Fingerprint fp;
  for (const Worker& w : workers_) {
    fp.Combine(static_cast<uint64_t>(w.phase));
    fp.Combine(w.passive ? 1 : 0);
    fp.Combine(static_cast<uint64_t>(static_cast<int64_t>(w.op_index)));
    fp.Combine(HashPointName(w.point));
    fp.Combine(w.cv_signalled ? 1 : 0);
  }
  return fp.value();
}

void CooperativeScheduler::ScheduleNextLocked(int parking,
                                              bool parking_enabled) {
  if (aborted_) return;
  running_ = -1;
  if (decisions_ >= config_.max_decisions) {
    std::ostringstream out;
    out << "decision budget (" << config_.max_decisions
        << ") exhausted: no execution of this scenario should need this many "
           "steps; likely a livelock (e.g. an eviction retry loop that never "
           "observes progress)";
    AbortLocked(SchedulerVerdict::kLivelock, out.str());
    return;
  }

  DecisionContext ctx;
  BuildCandidatesLocked(parking, parking_enabled, ctx);
  if (ctx.candidates.empty()) {
    bool all_finished = true;
    for (const Worker& w : workers_) {
      if (w.phase != Phase::kFinished) all_finished = false;
    }
    if (all_finished) return;  // clean completion, nothing to schedule
    std::ostringstream out;
    out << "deadlock: no enabled worker;";
    for (int id = 0; id < config_.num_threads; ++id) {
      const Worker& w = workers_[static_cast<size_t>(id)];
      out << " t" << id << "=" << PhaseName(static_cast<int>(w.phase)) << "@"
          << (w.point != nullptr ? w.point : "?");
    }
    AbortLocked(SchedulerVerdict::kDeadlock, out.str());
    return;
  }

  ctx.decision_index = decisions_;
  {
    Fingerprint sig;
    for (const Candidate& c : ctx.candidates) {
      sig.Combine(static_cast<uint64_t>(c.thread));
      sig.Combine(HashPointName(c.point));
    }
    ctx.candidate_signature = sig.value();
  }
  Fingerprint fp;
  fp.Combine(ThreadStateHashLocked());
  if (fingerprint_provider_) {
    // Safe to call with mu_ held: providers read quiesced structural state
    // without synchronization (every worker is parked right now) and must
    // not touch instrumented locks.
    fp.Combine(fingerprint_provider_());
    ctx.fingerprint_supported = fingerprint_supported_;
  }
  ctx.state_fingerprint = fp.value();

  const int chosen = chooser_ ? chooser_(ctx) : ctx.candidates.front().thread;
  if (chosen == kAbortExecution) {
    AbortLocked(SchedulerVerdict::kNone, "");  // branch pruned by explorer
    return;
  }
  bool valid = false;
  for (const Candidate& c : ctx.candidates) {
    if (c.thread == chosen) valid = true;
  }
  if (!valid) {
    std::ostringstream out;
    out << "chooser picked thread " << chosen
        << " which is not an enabled candidate at decision "
        << ctx.decision_index;
    AbortLocked(SchedulerVerdict::kNone, out.str());
    return;
  }

  ++decisions_;
  decision_trace_.push_back(chosen);
  decision_signatures_.push_back(ctx.candidate_signature);
  Worker& next = workers_[static_cast<size_t>(chosen)];
  next.phase = Phase::kRunning;
  next.passive = false;  // being scheduled resets the yield flag
  running_ = chosen;
  cv_.notify_all();
}

void CooperativeScheduler::WaitUntilScheduledLocked(
    std::unique_lock<std::mutex>& lk, int id) {
  cv_.wait(lk, [&] { return aborted_ || running_ == id; });
}

void CooperativeScheduler::ParkAtPoint(int id, const char* point,
                                       const void* obj) {
  std::unique_lock<std::mutex> lk(mu_);
  if (aborted_) return;
  Worker& w = workers_[static_cast<size_t>(id)];
  w.phase = Phase::kRunnable;
  w.point = point;
  w.obj = obj;
  ScheduleNextLocked(id, /*parking_enabled=*/true);
  WaitUntilScheduledLocked(lk, id);
}

void CooperativeScheduler::AbortLocked(SchedulerVerdict verdict,
                                       std::string detail) {
  aborted_ = true;
  if (verdict_ == SchedulerVerdict::kNone && verdict != SchedulerVerdict::kNone) {
    verdict_ = verdict;
    verdict_detail_ = std::move(detail);
  } else if (verdict == SchedulerVerdict::kNone && !detail.empty() &&
             verdict_detail_.empty()) {
    verdict_detail_ = std::move(detail);
  }
  // Release everyone: hooks are no-ops from here on, so the workers drain on
  // the real synchronization primitives (the real lock graph is acyclic —
  // the only nesting is commit-lock → queue-lock — so they cannot deadlock).
  running_ = -1;
  cv_.notify_all();
}

}  // namespace mc
}  // namespace bpw
