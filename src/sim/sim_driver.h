// Multiprocessor buffer-manager simulator (discrete-event).
//
// Why this exists: the paper's evaluation sweeps 1..16 *physical
// processors* (SGI Altix 350, PowerEdge 1900). The host this reproduction
// is run on has 4 vCPUs, so the 8- and 16-processor points cannot form on
// it, and lock contention is a parallelism phenomenon: it needs the holder
// and the requester to run at the same time. Per the substitution policy
// (DESIGN.md §2) the missing hardware is simulated: N virtual processors
// execute the workload in *simulated time*, with calibrated costs for the
// non-critical-section work, the policy bookkeeping, processor-cache
// coherence, lock acquisition, and context switches.
//
// Fidelity:
//  - The *replacement algorithms are the real ones* — the simulator hosts
//    actual ReplacementPolicy objects and an exact residency map, so hit
//    ratios and victim choices are not modelled, they are computed.
//  - The BP-Wrapper protocol is executed faithfully: per-processor FIFO
//    queues, TryLock at the batch threshold on every subsequent access,
//    blocking Lock only when the queue fills, commit-before-miss, and
//    §IV-B tag re-validation at commit.
//  - The lock is a FIFO-granted, work-conserving resource in simulated
//    time (waiters spin/wake in parallel, so the lock never idles while
//    requests are queued — the SMP behaviour). A blocking request that
//    finds it held is one *contention event* (the §IV-D metric); the
//    waiter additionally books a context-switch latency. A TryLock that
//    finds it held just fails.
//  - Cache-coherence costs scale with the processor count: with P
//    processors a fraction (P-1)/P of lock acquisitions find the lock word
//    and the policy nodes in another processor's cache. This is what makes
//    one-lock-per-access collapse on big machines while costing little on
//    one processor — and it is exactly the cost the §III-B prefetch moves
//    out of the lock-holding period.
//
// The simulation is single-threaded and deterministic for a given config.
#pragma once

#include "harness/driver.h"

namespace bpw {

/// Calibrated per-operation costs, in simulated nanoseconds, sized after
/// the paper's hardware era (§III-A measures multi-microsecond per-access
/// lock times at batch size 1 on 16 processors).
///
/// Costs marked [coh] are cache-coherence costs: they are multiplied by
/// (P-1)/P for P processors, and skipped entirely where the prefetch
/// technique applies (the §III-B effect: the misses resolve during the
/// requester's own computation before the lock is taken).
struct SimCosts {
  uint64_t access_work = 3000;  ///< non-critical work per page access
  uint64_t record = 15;         ///< appending to the private FIFO queue
  uint64_t lock_grab = 600;     ///< [coh] acquisition: CAS + line transfer
  uint64_t warmup_acq = 800;    ///< [coh] per-acquisition cold misses
                                ///< (lock metadata, list heads)
  uint64_t warmup_entry = 30;   ///< [coh] per-entry cold-miss share
  uint64_t policy_op = 50;      ///< per-entry policy update (cache-warm)
  uint64_t trylock = 30;        ///< a TryLock attempt (success or failure)
  uint64_t context_switch = 5000;  ///< waiter's block/wake latency
  uint64_t handoff = 150;       ///< [coh] extra lock occupancy per
                                ///< contended grant (waiters hammering the
                                ///< lock line) — gives the mild post-
                                ///< saturation throughput decline
  uint64_t clock_hit = 15;      ///< pgClock's atomic reference-bit set
  uint64_t victim_search = 500;  ///< victim selection under the lock
  uint64_t io_read = 0;          ///< simulated disk read on miss
  uint64_t io_write = 0;         ///< simulated write-back of a dirty page
  // --- NUMA cost mode. With numa_nodes > 1, the [coh] remote-cache
  // fraction splits into same-node transfers (cost x1) and cross-node
  // transfers (cost x numa_remote_mult): processors are distributed over
  // the nodes in equal blocks, so of a processor's P-1 peers, node_size-1
  // are local and the rest pay the cross-node multiplier. numa_nodes = 1
  // preserves the original integer-exact (P-1)/P scaling bit-for-bit, so
  // every existing baseline is untouched.
  uint64_t numa_nodes = 1;
  double numa_remote_mult = 2.0;
  /// Uniform jitter applied to access_work (0.1 = ±10%), breaking lockstep.
  double jitter = 0.1;
};

/// Runs the experiment of `config` on the simulator with `costs`.
/// `config.num_threads` is the number of simulated processors;
/// `config.duration_ms` / `warmup_ms` are *simulated* milliseconds;
/// `transactions_per_thread` selects count mode as in the real driver.
/// Storage latency comes from `costs.io_read/io_write`, not from
/// config.storage_latency.
StatusOr<DriverResult> RunSimulation(const DriverConfig& config,
                                     const SimCosts& costs = SimCosts());

}  // namespace bpw
