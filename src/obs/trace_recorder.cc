#include "obs/trace_recorder.h"

#include <cstdio>

#include "obs/contention_profiler.h"
#include "obs/json.h"
#include "util/thread_annotations.h"

namespace bpw {
namespace obs {

namespace {

struct EventMeta {
  const char* name;
  const char* cat;
  bool span;             // "X" complete event vs "i" instant
  const char* arg_name;  // nullptr = no args object
};

EventMeta MetaFor(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kLockWait:
      return {"lock.wait", "lock", true, nullptr};
    case TraceEventKind::kLockHold:
      return {"lock.hold", "lock", true, nullptr};
    case TraceEventKind::kBatchCommit:
      return {"commit.batch", "commit", true, "batch"};
    case TraceEventKind::kLockFallback:
      return {"lock.fallback", "lock", false, nullptr};
    case TraceEventKind::kEviction:
      return {"pool.evict", "buffer", false, "page"};
    case TraceEventKind::kProfPhase:
      // Name resolved per event from the path id; see ToChromeTrace.
      return {"prof.phase", "prof", true, "path"};
    case TraceEventKind::kProfCounterWait:
    case TraceEventKind::kProfCounterHold:
      // "C" counter events take a dedicated emission path.
      return {"prof.counter", "prof", false, nullptr};
  }
  return {"unknown", "misc", false, nullptr};
}

std::atomic<uint64_t> g_next_recorder_id{1} BPW_RELAXED_OK(
    "id allocator; only uniqueness matters");

// Per-thread cache of the registered ring so the emit fast path is a tls
// compare instead of a mutex. Keyed by the recorder's process-unique id so
// multiple recorders (tests) stay correct, merely slower when interleaved.
struct TlsCache {
  uint64_t owner_id = 0;
  void* buffer = nullptr;
};
thread_local TlsCache tls_cache;

}  // namespace

TraceRecorder::TraceRecorder(std::atomic<bool>* enabled_flag)
    : recorder_id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      enabled_(enabled_flag != nullptr ? enabled_flag : &own_enabled_) {}

TraceRecorder& TraceRecorder::Default() {
  // Leaked on purpose: worker threads may emit during static destruction.
  static TraceRecorder* instance =
      new TraceRecorder(&internal::g_default_trace_enabled);
  return *instance;
}

void TraceRecorder::SetBufferCapacity(size_t events) {
  capacity_.store(events < 16 ? 16 : events, std::memory_order_relaxed);
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  if (tls_cache.owner_id == recorder_id_) {
    return static_cast<ThreadBuffer*>(tls_cache.buffer);
  }
  auto buffer = std::make_unique<ThreadBuffer>(
      CurrentThreadId(), capacity_.load(std::memory_order_relaxed));
  ThreadBuffer* raw = buffer.get();
  {
    MutexGuard guard(mu_);
    // Re-use a buffer this thread registered earlier (cache was stolen by
    // another recorder instance in between).
    for (const auto& existing : buffers_) {
      if (existing->tid == raw->tid) {
        tls_cache = {recorder_id_, existing.get()};
        return existing.get();
      }
    }
    buffers_.push_back(std::move(buffer));
  }
  tls_cache = {recorder_id_, raw};
  return raw;
}

void TraceRecorder::Emit(TraceEventKind kind, uint64_t start_nanos,
                         uint64_t dur_nanos, uint64_t arg) {
  if (!enabled()) return;
  ThreadBuffer* buf = BufferForThisThread();
  const uint64_t seq = buf->head.fetch_add(1, std::memory_order_relaxed);
  std::atomic<uint64_t>* w =
      &buf->words[(seq % buf->capacity) * kWordsPerEvent];
  w[0].store((static_cast<uint64_t>(kind) << 32) | buf->tid,
             std::memory_order_relaxed);
  w[1].store(start_nanos, std::memory_order_relaxed);
  w[2].store(dur_nanos, std::memory_order_relaxed);
  w[3].store(arg, std::memory_order_relaxed);
}

uint64_t TraceRecorder::total_events() const {
  MutexGuard guard(mu_);
  uint64_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->head.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t TraceRecorder::dropped_events() const {
  MutexGuard guard(mu_);
  uint64_t dropped = 0;
  for (const auto& buf : buffers_) {
    const uint64_t head = buf->head.load(std::memory_order_relaxed);
    if (head > buf->capacity) dropped += head - buf->capacity;
  }
  return dropped;
}

std::string TraceRecorder::ToChromeTrace() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"bpwrapper\"}}";

  MutexGuard guard(mu_);
  char buf[256];
  for (const auto& tb : buffers_) {
    // thread_name plus a stable thread_sort_index: thread ids are dense and
    // assigned in spawn order, so sorting by tid keeps worker rows in a
    // deterministic, human-sensible order in Perfetto instead of
    // first-event order.
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                  "\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"worker-%u\"}}"
                  ",{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                  "\"name\":\"thread_sort_index\","
                  "\"args\":{\"sort_index\":%u}}",
                  tb->tid, tb->tid, tb->tid, tb->tid);
    out += buf;
    const uint64_t head = tb->head.load(std::memory_order_relaxed);
    const uint64_t n = head < tb->capacity ? head : tb->capacity;
    for (uint64_t i = 0; i < n; ++i) {
      const std::atomic<uint64_t>* w = &tb->words[i * kWordsPerEvent];
      const uint64_t w0 = w[0].load(std::memory_order_relaxed);
      const uint64_t start = w[1].load(std::memory_order_relaxed);
      const uint64_t dur = w[2].load(std::memory_order_relaxed);
      const uint64_t arg = w[3].load(std::memory_order_relaxed);
      const auto kind = static_cast<TraceEventKind>(w0 >> 32);
      const uint32_t tid = static_cast<uint32_t>(w0);
      const EventMeta meta = MetaFor(kind);

      if (kind == TraceEventKind::kProfCounterWait ||
          kind == TraceEventKind::kProfCounterHold) {
        // Chrome "C" counter sample. One counter track per site label
        // (name+pid key the track); wait and hold are two series on it.
        const char* series = kind == TraceEventKind::kProfCounterWait
                                 ? "wait_ns"
                                 : "hold_ns";
        std::snprintf(buf, sizeof(buf),
                      ",{\"name\":\"%s\",\"cat\":\"prof\",\"ph\":\"C\","
                      "\"pid\":1,\"ts\":%.3f,\"args\":{\"%s\":%llu}}",
                      ProfPathLabel(static_cast<ProfSiteId>(dur)),
                      static_cast<double>(start) / 1e3, series,
                      static_cast<unsigned long long>(arg));
        out += buf;
        continue;
      }

      const char* name = kind == TraceEventKind::kProfPhase
                             ? ProfPathLabel(static_cast<ProfSiteId>(arg))
                             : meta.name;
      std::snprintf(buf, sizeof(buf),
                    ",{\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,"
                    "\"tid\":%u,\"ts\":%.3f",
                    name, meta.cat, tid,
                    static_cast<double>(start) / 1e3);
      out += buf;
      if (meta.span) {
        std::snprintf(buf, sizeof(buf), ",\"ph\":\"X\",\"dur\":%.3f",
                      static_cast<double>(dur) / 1e3);
      } else {
        std::snprintf(buf, sizeof(buf), ",\"ph\":\"i\",\"s\":\"t\"");
      }
      out += buf;
      if (meta.arg_name != nullptr) {
        std::snprintf(buf, sizeof(buf), ",\"args\":{\"%s\":%llu}",
                      meta.arg_name, static_cast<unsigned long long>(arg));
        out += buf;
      }
      out += '}';
    }
  }
  out += "]}";
  return out;
}

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToChromeTrace();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

void TraceRecorder::Clear() {
  MutexGuard guard(mu_);
  for (const auto& buf : buffers_) {
    buf->head.store(0, std::memory_order_relaxed);
  }
}

}  // namespace obs
}  // namespace bpw
