// Invariant-checking concurrency stress runner.
//
// One RunStress() call drives a (coordinator, policy) stack over a small
// buffer pool with several worker threads of seeded random traffic — hot/cold
// fetches, dirty writes, drops — under an installed ScheduleController (and
// optionally a storage FaultInjector), then checks:
//
//   - every fetched page's stamp matches the page id (no cross-page bytes
//     served to a reader);
//   - BufferPool::CheckIntegrity() after quiescing: page-table/frame-tag
//     agreement, pin counts back to zero, free-list sanity, policy
//     invariants and resident counts;
//   - with writes enabled and faults off: no lost updates (storage holds
//     each page's last flushed version);
//   - with faults on: every stamp inconsistency in storage is covered by an
//     injected write error, torn write, or failed write-back;
//   - hit-ratio sanity: the concurrent run's hit ratio must land within a
//     band of a single-threaded SerializedCoordinator oracle replaying the
//     same access stream.
//
// Every check failure carries the run's seed; re-running with the same
// StressOptions::seed replays the same traces and perturbation decisions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/coordinator_factory.h"
#include "testing/fault_injector.h"
#include "testing/schedule_point.h"

namespace bpw {
namespace stress {

struct StressOptions {
  /// Master seed: derives per-thread traces and schedule perturbations.
  uint64_t seed = 1;
  /// The stack under test.
  SystemConfig system;
  int threads = 4;
  int ops_per_thread = 15000;
  size_t frames = 48;
  uint64_t pages = 192;
  size_t page_size = 512;
  /// Mix: probability an op targets the hot set (pages [0, pages/8)).
  double hot_probability = 0.6;
  /// Probability a fetched page is stamped + marked dirty.
  double dirty_probability = 0.25;
  /// Probability an op is a DropPage instead of a fetch.
  double drop_probability = 0.0;
  /// Install a ScheduleController around the run.
  bool schedule_perturbation = true;
  testing::ScheduleOptions schedule;  // .seed is overridden with `seed`
  /// Storage fault plan (all-zero probabilities = no injector installed).
  testing::FaultPlan faults;          // .seed is overridden with `seed`
  /// Compare the hit ratio against a serialized single-thread oracle.
  bool check_hit_ratio_oracle = true;
  /// Allowed |concurrent − oracle| hit-ratio gap. Concurrency legitimately
  /// perturbs interleaving-sensitive policies, so the band is wide; it
  /// exists to catch wholesale bookkeeping breakage, not ±1% drift.
  double hit_ratio_tolerance = 0.20;
  /// MUTATION KNOB — forwarded to BufferPoolConfig (see buffer_pool.h).
  bool mutate_skip_victim_revalidation = false;
};

struct StressResult {
  bool ok = true;
  /// First failure, including the reproduction seed. Empty when ok.
  std::string failure;

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t io_errors = 0;          ///< injected failures seen by workers
  /// Stamp checks that failed, on fetch and again before release.
  uint64_t verify_mismatches = 0;
  uint64_t schedule_points = 0;    ///< points observed by the controller
  uint64_t perturbations = 0;
  testing::FaultStats fault_stats;
  double hit_ratio = 0.0;
  double oracle_hit_ratio = 0.0;
};

StressResult RunStress(const StressOptions& options);

/// The default stress matrix: every coordinator kind crossed with
/// representative policies (clock-lockfree only pairs with clock/gclock).
/// Each entry is a ready-to-run SystemConfig plus a display name.
struct StressConfig {
  std::string name;
  SystemConfig system;
};
std::vector<StressConfig> DefaultStressMatrix();

}  // namespace stress
}  // namespace bpw
