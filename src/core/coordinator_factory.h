// Construction of coordinators by configuration, including the paper's five
// named systems (Table I).
#pragma once

#include <memory>
#include <string>

#include "core/coordinator.h"
#include "sync/contention_lock.h"
#include "util/status.h"

namespace bpw {

/// A declarative description of a (policy, coordinator) stack.
struct SystemConfig {
  /// Policy name understood by CreatePolicy ("2q", "lirs", "clock", ...).
  std::string policy = "2q";
  /// Coordinator kind: "serialized", "bp-wrapper" (the paper's protocol:
  /// CombiningCoordinator without publication slots), "combining"
  /// (BP-Wrapper plus flat combining and early lock release — "pgBat++"),
  /// "sharded" (per-shard policy instances with a lock-free hit path —
  /// "pgShard"), "shared-queue" (the §III-A design the paper rejected; for
  /// ablations), or "clock-lockfree" (requires policy "clock" or "gclock").
  std::string coordinator = "serialized";
  bool prefetch = false;      ///< §III-B prefetching
  size_t queue_size = 64;     ///< BP-Wrapper S
  size_t batch_threshold = 32;  ///< BP-Wrapper T
  /// Shard count for the "sharded" coordinator: the policy is split into
  /// this many independent instances (ShardedPolicy), each behind its own
  /// lock. 1 is a faithful pass-through of the unsharded policy.
  size_t policy_shards = 1;
  /// Committed batches per shard between cross-shard rebalance exchanges
  /// ("sharded" only); 0 disables the exchange.
  size_t rebalance_interval = 16;
  LockInstrumentation instrumentation = LockInstrumentation::kCounts;
  /// MUTATION KNOBS — tests only; meaningful for "combining". See
  /// CombiningCoordinator::Options for what each bug does.
  bool test_combine_drain_twice = false;
  bool test_combine_clear_ready_before_apply = false;
  bool test_combine_skip_release = false;
  /// MUTATION KNOBS — tests only; meaningful for "sharded". See
  /// ShardedCoordinator::Options for what each bug does.
  bool test_shard_double_track = false;
  bool test_shard_stale_eviction = false;
};

/// Builds a coordinator (owning its policy) for `num_frames` frames.
StatusOr<std::unique_ptr<Coordinator>> CreateCoordinator(
    const SystemConfig& config, size_t num_frames);

/// The paper's five tested systems (Table I), by their paper names, plus
/// this repo's extension:
///   "pgClock"  — clock algorithm, lock-free hits
///   "pg2Q"     — 2Q, lock per access
///   "pgPre"    — 2Q + prefetching only
///   "pgBat"    — 2Q + batching only
///   "pgBatPre" — 2Q + batching + prefetching
///   "pgBat++"  — 2Q + batching + prefetching + flat combining with early
///                lock release (CombiningCoordinator)
///   "pgShard"  — 2Q sharded 8 ways + prefetching, lock-free hit path
///                (ShardedCoordinator)
/// Returns InvalidArgument for unknown names.
StatusOr<SystemConfig> PaperSystemConfig(const std::string& name);

/// All paper system names (plus "pgBat++"/"pgShard") in presentation order.
std::vector<std::string> PaperSystemNames();

}  // namespace bpw
