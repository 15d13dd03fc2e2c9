// Span recording for the benchmark's traced run, and the Coordinator
// decorator that times the core layer from outside src/.
//
// A traced worker installs a SpanRecorder on its thread. For a sampled
// transaction it opens a `tx` root span, wraps each FetchPage in a
// `buffer.fetch` span and each PageHandle::Release in a `buffer.release`
// span. The TimingCoordinator sits between the BufferPool and the coordinator
// CreateCoordinator built; while the calling thread's recorder is inside a
// sampled transaction, it times each OnHit, ChooseVictim, CompleteMiss and
// FlushSlot call and records it as a child of the open span. Outside sampled
// transactions it forwards without reading the clock, so unsampled traffic
// pays one virtual call and one thread-local load per coordinator call.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/coordinator.h"
#include "util/histogram.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kTx,
  kFetch,
  kRelease,
  kOnHit,
  kChooseVictim,
  kCompleteMiss,
  kFlushSlot,
};

/// The span's name in the output ("tx", "buffer.fetch", "core.on_hit", ...).
const char* SpanName(SpanKind kind);

/// One recorded interval. Ids are unique across recorders; `parent` is 0
/// for a root. Spans of one transaction share `tx`, the root's id.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t tx = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  SpanKind kind = SpanKind::kTx;
};

/// Per-layer aggregates folded from every sampled transaction.
struct LayerStats {
  bpw::Histogram fetch_hit_ns;
  bpw::Histogram fetch_miss_ns;
  bpw::Histogram release_ns;
  bpw::Histogram on_hit_ns;
  bpw::Histogram choose_victim_ns;
  bpw::Histogram complete_miss_ns;
  /// Fetch time minus the coordinator calls made inside it.
  double hit_self_ns_sum = 0;
  double miss_self_ns_sum = 0;
  /// FetchPage time in calls longer than the stall threshold, and in all.
  double stall_ns_sum = 0;
  double fetch_ns_sum = 0;
  /// Child spans that did not lie inside their parent's interval.
  uint64_t nesting_errors = 0;

  void Merge(const LayerStats& other);
};

/// Records spans of one worker thread. Not thread-safe: only its owning
/// thread touches it while workers run.
class SpanRecorder {
 public:
  /// A FetchPage call lasting longer than this counts as a stall.
  static constexpr uint64_t kStallNanos = 50'000;

  /// @param retain_limit spans kept for the output file; statistics fold
  ///        every sampled transaction regardless.
  SpanRecorder(uint32_t worker, size_t retain_limit);

  /// Makes `recorder` the calling thread's recorder (nullptr to remove).
  static void Install(SpanRecorder* recorder);

  bool in_tx() const { return in_tx_; }

  void BeginTx(uint64_t now_ns);
  void EndTx(uint64_t now_ns);

  /// Brackets a FetchPage call; `hit` is the session's verdict.
  void BeginFetch(uint64_t start_ns);
  void EndFetch(uint64_t end_ns, bool hit);
  /// Closes a fetch that failed; failed calls enter no statistic.
  void CancelFetch() { in_fetch_ = false; }
  void RecordRelease(uint64_t start_ns, uint64_t end_ns);

  /// A coordinator call inside the open fetch (or directly under the tx).
  void RecordChild(SpanKind kind, uint64_t start_ns, uint64_t end_ns);

  uint32_t worker() const { return worker_; }
  const std::vector<Span>& retained() const { return retained_; }
  const LayerStats& stats() const { return stats_; }
  uint64_t sampled_transactions() const { return sampled_tx_; }

 private:
  uint32_t worker_;
  size_t retain_limit_;
  std::vector<Span> retained_;
  std::vector<Span> tx_spans_;  // the open transaction's spans
  LayerStats stats_;

  uint64_t next_id_ = 1;
  uint64_t sampled_tx_ = 0;
  bool in_tx_ = false;
  Span tx_;
  bool in_fetch_ = false;
  Span fetch_;
  uint64_t fetch_child_ns_ = 0;
};

/// Coordinator decorator for the traced run. Forwards every virtual method
/// to the coordinator it wraps; times OnHit, ChooseVictim, CompleteMiss and
/// FlushSlot into the calling thread's SpanRecorder while it is inside a
/// sampled transaction.
class TimingCoordinator final : public bpw::Coordinator {
 public:
  explicit TimingCoordinator(std::unique_ptr<bpw::Coordinator> inner);

  /// Hands the frame-tag array the pool bound to this decorator on to the
  /// wrapped coordinator (BindFrameTags is not virtual), once, before the
  /// first slot is returned.
  std::unique_ptr<ThreadSlot> RegisterThread() override;
  void OnHit(ThreadSlot* slot, bpw::PageId page, bpw::FrameId frame) override;
  bpw::StatusOr<Victim> ChooseVictim(ThreadSlot* slot,
                                     const EvictableFn& evictable,
                                     bpw::PageId incoming) override;
  void CompleteMiss(ThreadSlot* slot, bpw::PageId page,
                    bpw::FrameId frame) override;
  bool OnErase(ThreadSlot* slot, bpw::PageId page,
               bpw::FrameId frame) override;
  void FlushSlot(ThreadSlot* slot) override;
  bpw::LockStats lock_stats() const override { return inner_->lock_stats(); }
  void ResetLockStats() override { inner_->ResetLockStats(); }
  const bpw::ReplacementPolicy& policy() const override {
    return inner_->policy();
  }
  bpw::ReplacementPolicy* mutable_policy() override {
    return inner_->mutable_policy();
  }
  std::string name() const override { return inner_->name(); }
  bool StateFingerprintSupported() const override {
    return inner_->StateFingerprintSupported();
  }
  uint64_t StateFingerprint() const override {
    return inner_->StateFingerprint();
  }
  uint64_t SlotStateFingerprint(const ThreadSlot* slot) const override {
    return inner_->SlotStateFingerprint(slot);
  }
  bpw::Status CheckQuiescedInvariants() const override {
    return inner_->CheckQuiescedInvariants();
  }

 private:
  std::unique_ptr<bpw::Coordinator> inner_;
  std::once_flag bind_once_;
};

/// Writes `recorders`' retained spans as Chrome trace-event JSON
/// ("ph":"X" complete events; ts/dur in microseconds). Returns false if the
/// file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders);

}  // namespace perfbench
