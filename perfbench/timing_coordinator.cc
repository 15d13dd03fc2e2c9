#include "timing_coordinator.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/clock.h"

namespace perfbench {

namespace {
thread_local SpanRecorder* tls_recorder = nullptr;
}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTx:
      return "tx";
    case SpanKind::kFetch:
      return "buffer.fetch";
    case SpanKind::kRelease:
      return "buffer.release";
    case SpanKind::kOnHit:
      return "core.on_hit";
    case SpanKind::kChooseVictim:
      return "core.choose_victim";
    case SpanKind::kCompleteMiss:
      return "core.complete_miss";
    case SpanKind::kFlushSlot:
      return "core.flush_slot";
  }
  return "unknown";
}

void LayerStats::Merge(const LayerStats& other) {
  fetch_hit_ns.Merge(other.fetch_hit_ns);
  fetch_miss_ns.Merge(other.fetch_miss_ns);
  release_ns.Merge(other.release_ns);
  on_hit_ns.Merge(other.on_hit_ns);
  choose_victim_ns.Merge(other.choose_victim_ns);
  complete_miss_ns.Merge(other.complete_miss_ns);
  hit_self_ns_sum += other.hit_self_ns_sum;
  miss_self_ns_sum += other.miss_self_ns_sum;
  stall_ns_sum += other.stall_ns_sum;
  fetch_ns_sum += other.fetch_ns_sum;
  nesting_errors += other.nesting_errors;
}

// -------------------------------------------------------------- SpanRecorder

SpanRecorder::SpanRecorder(uint32_t worker, size_t retain_limit)
    : worker_(worker),
      retain_limit_(retain_limit),
      // Ids stay unique across workers in the merged output.
      next_id_((static_cast<uint64_t>(worker) << 40) + 1) {
  retained_.reserve(retain_limit);
  tx_spans_.reserve(256);
}

void SpanRecorder::Install(SpanRecorder* recorder) { tls_recorder = recorder; }

void SpanRecorder::BeginTx(uint64_t now_ns) {
  in_tx_ = true;
  tx_ = Span{};
  tx_.id = next_id_++;
  tx_.tx = tx_.id;
  tx_.start_ns = now_ns;
  tx_.kind = SpanKind::kTx;
  tx_spans_.clear();
  ++sampled_tx_;
}

void SpanRecorder::EndTx(uint64_t now_ns) {
  tx_.end_ns = now_ns;
  in_tx_ = false;
  if (retained_.size() + tx_spans_.size() + 1 > retain_limit_) return;
  retained_.push_back(tx_);
  retained_.insert(retained_.end(), tx_spans_.begin(), tx_spans_.end());
}

void SpanRecorder::BeginFetch(uint64_t start_ns) {
  in_fetch_ = true;
  fetch_ = Span{};
  fetch_.id = next_id_++;
  fetch_.parent = tx_.id;
  fetch_.tx = tx_.id;
  fetch_.start_ns = start_ns;
  fetch_.kind = SpanKind::kFetch;
  fetch_child_ns_ = 0;
}

void SpanRecorder::EndFetch(uint64_t end_ns, bool hit) {
  in_fetch_ = false;
  fetch_.end_ns = end_ns;
  const uint64_t duration = end_ns - fetch_.start_ns;
  // Children were checked to start inside the fetch; they must also end
  // inside it, which bounds their total by the fetch's duration.
  for (size_t i = tx_spans_.size(); i-- > 0;) {
    const Span& child = tx_spans_[i];
    if (child.parent != fetch_.id) break;
    if (child.end_ns > end_ns) ++stats_.nesting_errors;
  }
  const double self = static_cast<double>(duration) -
                      static_cast<double>(fetch_child_ns_);
  if (hit) {
    stats_.fetch_hit_ns.Record(duration);
    stats_.hit_self_ns_sum += self;
  } else {
    stats_.fetch_miss_ns.Record(duration);
    stats_.miss_self_ns_sum += self;
  }
  stats_.fetch_ns_sum += static_cast<double>(duration);
  if (duration > kStallNanos) {
    stats_.stall_ns_sum += static_cast<double>(duration);
  }
  tx_spans_.push_back(fetch_);
}

void SpanRecorder::RecordRelease(uint64_t start_ns, uint64_t end_ns) {
  stats_.release_ns.Record(end_ns - start_ns);
  Span span;
  span.id = next_id_++;
  span.parent = tx_.id;
  span.tx = tx_.id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.kind = SpanKind::kRelease;
  tx_spans_.push_back(span);
}

void SpanRecorder::RecordChild(SpanKind kind, uint64_t start_ns,
                               uint64_t end_ns) {
  const Span& parent = in_fetch_ ? fetch_ : tx_;
  if (start_ns < parent.start_ns) ++stats_.nesting_errors;
  const uint64_t duration = end_ns - start_ns;
  if (in_fetch_) fetch_child_ns_ += duration;
  switch (kind) {
    case SpanKind::kOnHit:
      stats_.on_hit_ns.Record(duration);
      break;
    case SpanKind::kChooseVictim:
      stats_.choose_victim_ns.Record(duration);
      break;
    case SpanKind::kCompleteMiss:
      stats_.complete_miss_ns.Record(duration);
      break;
    default:
      break;
  }
  Span span;
  span.id = next_id_++;
  span.parent = parent.id;
  span.tx = tx_.id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.kind = kind;
  tx_spans_.push_back(span);
}

// --------------------------------------------------------- TimingCoordinator

namespace {

/// The calling thread's recorder if it is inside a sampled transaction.
SpanRecorder* Sampling() {
  SpanRecorder* recorder = tls_recorder;
  return recorder != nullptr && recorder->in_tx() ? recorder : nullptr;
}

}  // namespace

TimingCoordinator::TimingCoordinator(std::unique_ptr<bpw::Coordinator> inner)
    : inner_(std::move(inner)) {}

std::unique_ptr<bpw::Coordinator::ThreadSlot>
TimingCoordinator::RegisterThread() {
  std::call_once(bind_once_, [this] {
    if (frame_tags_ != nullptr) {
      inner_->BindFrameTags(frame_tags_, frame_tag_count_);
    }
  });
  return inner_->RegisterThread();
}

void TimingCoordinator::OnHit(ThreadSlot* slot, bpw::PageId page,
                              bpw::FrameId frame) {
  SpanRecorder* recorder = Sampling();
  if (recorder == nullptr) {
    inner_->OnHit(slot, page, frame);
    return;
  }
  const uint64_t start = bpw::NowNanos();
  inner_->OnHit(slot, page, frame);
  recorder->RecordChild(SpanKind::kOnHit, start, bpw::NowNanos());
}

bpw::StatusOr<bpw::Coordinator::Victim> TimingCoordinator::ChooseVictim(
    ThreadSlot* slot, const EvictableFn& evictable, bpw::PageId incoming) {
  SpanRecorder* recorder = Sampling();
  if (recorder == nullptr) {
    return inner_->ChooseVictim(slot, evictable, incoming);
  }
  const uint64_t start = bpw::NowNanos();
  auto victim = inner_->ChooseVictim(slot, evictable, incoming);
  recorder->RecordChild(SpanKind::kChooseVictim, start, bpw::NowNanos());
  return victim;
}

void TimingCoordinator::CompleteMiss(ThreadSlot* slot, bpw::PageId page,
                                     bpw::FrameId frame) {
  SpanRecorder* recorder = Sampling();
  if (recorder == nullptr) {
    inner_->CompleteMiss(slot, page, frame);
    return;
  }
  const uint64_t start = bpw::NowNanos();
  inner_->CompleteMiss(slot, page, frame);
  recorder->RecordChild(SpanKind::kCompleteMiss, start, bpw::NowNanos());
}

bool TimingCoordinator::OnErase(ThreadSlot* slot, bpw::PageId page,
                                bpw::FrameId frame) {
  return inner_->OnErase(slot, page, frame);
}

void TimingCoordinator::FlushSlot(ThreadSlot* slot) {
  SpanRecorder* recorder = Sampling();
  if (recorder == nullptr) {
    inner_->FlushSlot(slot);
    return;
  }
  const uint64_t start = bpw::NowNanos();
  inner_->FlushSlot(slot);
  recorder->RecordChild(SpanKind::kFlushSlot, start, bpw::NowNanos());
}

// ---------------------------------------------------------------- WriteSpans

bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders) {
  uint64_t origin = UINT64_MAX;
  for (const SpanRecorder* recorder : recorders) {
    for (const Span& span : recorder->retained()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const SpanRecorder* recorder : recorders) {
    for (const Span& span : recorder->retained()) {
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                   ",\"parent\":%" PRIu64 ",\"tx\":%" PRIu64 "}}",
                   first ? "" : ",", SpanName(span.kind), recorder->worker(),
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   span.id, span.parent, span.tx);
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
