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
  /// Coordinator kind: "serialized", "bp-wrapper" (the paper's protocol,
  /// BpWrapperCoordinator), "shared-queue" (the §III-A design the paper
  /// rejected; for ablations), or "clock-lockfree" (requires policy "clock"
  /// or "gclock").
  std::string coordinator = "serialized";
  bool prefetch = false;      ///< §III-B prefetching
  size_t queue_size = 64;     ///< BP-Wrapper S
  size_t batch_threshold = 32;  ///< BP-Wrapper T
  LockInstrumentation instrumentation = LockInstrumentation::kCounts;
};

/// Builds a coordinator (owning its policy) for `num_frames` frames.
StatusOr<std::unique_ptr<Coordinator>> CreateCoordinator(
    const SystemConfig& config, size_t num_frames);

/// The paper's five tested systems (Table I), by their paper names:
///   "pgClock"  — clock algorithm, lock-free hits
///   "pg2Q"     — 2Q, lock per access
///   "pgPre"    — 2Q + prefetching only
///   "pgBat"    — 2Q + batching only
///   "pgBatPre" — 2Q + batching + prefetching
/// Returns InvalidArgument for unknown names.
StatusOr<SystemConfig> PaperSystemConfig(const std::string& name);

/// All paper system names in presentation order.
std::vector<std::string> PaperSystemNames();

}  // namespace bpw
