// Tests for the observability layer: sharded counters under concurrent
// writers, registry snapshots and sources, the stats sampler's time series,
// trace-event recording, and the JSON helpers everything is serialized with.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/stats_sampler.h"
#include "obs/trace_recorder.h"
#include "util/thread_id.h"

namespace bpw {
namespace obs {
namespace {

// Scans a JSON document for structural validity: balanced {} / [] outside
// string literals, terminated strings, no trailing garbage. Not a full
// parser, but catches the ways hand-rolled emitters typically break.
bool JsonIsBalanced(const std::string& doc) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : doc) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

TEST(CounterTest, SingleThreadSum) {
  Counter c;
  EXPECT_EQ(c.Sum(), 0u);
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(c.Sum(), 7u);
  c.Reset();
  EXPECT_EQ(c.Sum(), 0u);
}

TEST(CounterTest, ConcurrentWritersSumExactly) {
  // Writers from distinct threads land in (mostly) distinct shards; the
  // folded sum must still be exact once they join.
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Sum(), kThreads * kAddsPerThread);
}

TEST(CounterTest, ConcurrentResetNeverTears) {
  // Sum() under concurrent Add()/Reset() may be any partial value but must
  // never exceed what was written; mainly a TSan target.
  Counter c;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) c.Add(1);
  });
  for (int i = 0; i < 1000; ++i) {
    c.Reset();
    c.Sum();
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(MetricMacroTest, DisabledSkipsIncrement) {
  Counter c;
  SetMetricsEnabled(false);
  BPW_METRIC_ADD(&c, 5);
  EXPECT_EQ(c.Sum(), 0u);
  SetMetricsEnabled(true);
  BPW_METRIC_ADD(&c, 5);
  EXPECT_EQ(c.Sum(), 5u);
  Counter* null_counter = nullptr;
  BPW_METRIC_ADD(null_counter, 1);  // must not crash
}

TEST(MetricsRegistryTest, GetCounterIsStable) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x");
  Counter* b = reg.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.GetCounter("y"));
}

TEST(MetricsRegistryTest, SnapshotReadsAllKinds) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Add(11);
  reg.GetGauge("g")->Set(-4);
  reg.GetHistogram("h")->Record(100);
  reg.GetHistogram("h")->Record(300);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_GT(snap.wall_nanos, 0u);
  EXPECT_DOUBLE_EQ(snap.value("c"), 11.0);
  EXPECT_DOUBLE_EQ(snap.value("g"), -4.0);
  EXPECT_DOUBLE_EQ(snap.value("h.count"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("h.mean"), 200.0);
  EXPECT_DOUBLE_EQ(snap.value("h.max"), 300.0);
  EXPECT_DOUBLE_EQ(snap.value("missing", -1.0), -1.0);
}

TEST(MetricsRegistryTest, SourcesContributeAndDuplicateNamesSum) {
  MetricsRegistry reg;
  uint64_t id1 = reg.RegisterSource(
      [](MetricsSnapshot& s) { s.Add("lock.acquisitions", 10); });
  uint64_t id2 = reg.RegisterSource(
      [](MetricsSnapshot& s) { s.Add("lock.acquisitions", 7); });
  EXPECT_DOUBLE_EQ(reg.Snapshot().value("lock.acquisitions"), 17.0);

  reg.UnregisterSource(id2);
  EXPECT_DOUBLE_EQ(reg.Snapshot().value("lock.acquisitions"), 10.0);
  reg.UnregisterSource(id1);
  EXPECT_EQ(reg.Snapshot().values.count("lock.acquisitions"), 0u);
}

TEST(MetricsRegistryTest, ScopedSourceUnregistersOnDestruction) {
  MetricsRegistry reg;
  {
    ScopedMetricSource source(&reg,
                              [](MetricsSnapshot& s) { s.Add("v", 1); });
    EXPECT_DOUBLE_EQ(reg.Snapshot().value("v"), 1.0);
  }
  EXPECT_EQ(reg.Snapshot().values.count("v"), 0u);
}

TEST(MetricsRegistryTest, ResetCountersZeroesOwnedMetrics) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Add(5);
  reg.GetHistogram("h")->Record(9);
  reg.ResetCounters();
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_DOUBLE_EQ(snap.value("c"), 0.0);
  EXPECT_DOUBLE_EQ(snap.value("h.count"), 0.0);
}

TEST(MetricsSnapshotTest, DeltaFromSubtractsPointwise) {
  MetricsSnapshot before, after;
  before.wall_nanos = 1000;
  before.Add("a", 10);
  after.wall_nanos = 3000;
  after.Add("a", 25);
  after.Add("b", 5);  // missing from `before` counts as 0

  MetricsSnapshot delta = after.DeltaFrom(before);
  EXPECT_EQ(delta.wall_nanos, 2000u);
  EXPECT_DOUBLE_EQ(delta.value("a"), 15.0);
  EXPECT_DOUBLE_EQ(delta.value("b"), 5.0);
}

TEST(MetricsSnapshotTest, DeltaFromKeepsGauges) {
  // A gauge is a level, not a running total: differencing two snapshots
  // must report the later level, not the (usually zero) change.
  MetricsRegistry reg;
  reg.GetGauge("frames")->Set(2048);
  reg.GetCounter("work")->Add(10);
  const MetricsSnapshot before = reg.Snapshot();
  reg.GetGauge("frames")->Set(2000);
  reg.GetCounter("work")->Add(32);
  const MetricsSnapshot after = reg.Snapshot();

  const MetricsSnapshot delta = after.DeltaFrom(before);
  EXPECT_DOUBLE_EQ(delta.value("frames"), 2000.0);
  EXPECT_DOUBLE_EQ(delta.value("work"), 32.0);

  const std::vector<MetricsSnapshot> deltas =
      StatsSampler::Deltas({before, after});
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(deltas[0].value("frames"), 2000.0);
  EXPECT_DOUBLE_EQ(deltas[0].value("work"), 32.0);
}

TEST(MetricsSnapshotTest, SourceGaugesKeepLaterValue) {
  MetricsSnapshot before, after;
  before.AddGauge("free", 100);
  before.Add("hits", 5);
  after.AddGauge("free", 40);
  after.Add("hits", 9);
  const MetricsSnapshot delta = after.DeltaFrom(before);
  EXPECT_DOUBLE_EQ(delta.value("free"), 40.0);
  EXPECT_DOUBLE_EQ(delta.value("hits"), 4.0);
  // The marking survives differencing, so a delta of deltas stays right.
  EXPECT_EQ(delta.gauges.count("free"), 1u);
  EXPECT_EQ(delta.gauges.count("hits"), 0u);
}

TEST(MetricsSnapshotTest, ToJsonIsBalancedAndNamed) {
  MetricsSnapshot snap;
  snap.wall_nanos = 1500000;  // 1.5 ms
  snap.Add("buffer.hits", 42);
  std::string json = snap.ToJson();
  EXPECT_TRUE(JsonIsBalanced(json)) << json;
  EXPECT_NE(json.find("\"t_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"buffer.hits\":42"), std::string::npos);
}

TEST(StatsSamplerTest, SampleNowCapturesDeltas) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("work");
  StatsSampler sampler(&reg, /*interval_ms=*/1000);

  c->Add(10);
  sampler.SampleNow();
  c->Add(32);
  sampler.SampleNow();

  std::vector<MetricsSnapshot> series = sampler.samples();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].value("work"), 10.0);
  EXPECT_DOUBLE_EQ(series[1].value("work"), 42.0);

  std::vector<MetricsSnapshot> deltas = StatsSampler::Deltas(series);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(deltas[0].value("work"), 32.0);
}

TEST(StatsSamplerTest, StartStopYieldsAtLeastTwoSamples) {
  MetricsRegistry reg;
  reg.GetCounter("work")->Add(1);
  // Interval far longer than the run: the initial + final samples must
  // still be there.
  StatsSampler sampler(&reg, /*interval_ms=*/10000);
  sampler.Start();
  sampler.Stop();
  EXPECT_GE(sampler.samples().size(), 2u);
  sampler.Stop();  // idempotent
}

TEST(StatsSamplerTest, BackgroundThreadSamplesWhileRunning) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("work");
  StatsSampler sampler(&reg, /*interval_ms=*/5);
  sampler.Start();
  for (int i = 0; i < 20; ++i) {
    c->Add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sampler.Stop();
  // initial + final + at least one periodic sample over ~100ms at 5ms.
  EXPECT_GE(sampler.samples().size(), 3u);
}

TEST(StatsSamplerTest, ToJsonLinesOneObjectPerSample) {
  MetricsRegistry reg;
  reg.GetCounter("work")->Add(3);
  StatsSampler sampler(&reg, 1000);
  sampler.SampleNow();
  sampler.SampleNow();
  std::string lines = sampler.ToJsonLines();
  size_t newline_count = 0;
  size_t pos = 0;
  while ((pos = lines.find('\n', pos)) != std::string::npos) {
    ++newline_count;
    ++pos;
  }
  EXPECT_EQ(newline_count, 2u);
  EXPECT_TRUE(JsonIsBalanced(lines)) << lines;
}

TEST(TraceRecorderTest, DisabledEmitIsDropped) {
  TraceRecorder rec;
  rec.Emit(TraceEventKind::kLockHold, 100, 50, 0);
  EXPECT_EQ(rec.total_events(), 0u);
}

TEST(TraceRecorderTest, MultiThreadEventsExportAsChromeTrace) {
  TraceRecorder rec;
  rec.SetEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        uint64_t start = 1000 + static_cast<uint64_t>(i) * 10;
        rec.Emit(TraceEventKind::kLockHold, start, 5, 0);
        rec.Emit(TraceEventKind::kBatchCommit, start, 3, 64);
        rec.Emit(TraceEventKind::kEviction, start, 0, 7);
      }
    });
  }
  for (auto& t : threads) t.join();
  rec.SetEnabled(false);

  EXPECT_EQ(rec.total_events(), kThreads * kEventsPerThread * 3u);
  EXPECT_EQ(rec.dropped_events(), 0u);

  std::string json = rec.ToChromeTrace();
  EXPECT_TRUE(JsonIsBalanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"lock.hold\""), std::string::npos);
  EXPECT_NE(json.find("\"commit.batch\""), std::string::npos);
  EXPECT_NE(json.find("\"pool.evict\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(json.find("\"batch\":64"), std::string::npos);
  // One thread_name metadata record per emitting thread.
  size_t meta_count = 0;
  size_t pos = 0;
  while ((pos = json.find("\"thread_name\"", pos)) != std::string::npos) {
    ++meta_count;
    ++pos;
  }
  EXPECT_EQ(meta_count, static_cast<size_t>(kThreads));
}

TEST(TraceRecorderTest, RingWrapDropsOldestAndCounts) {
  TraceRecorder rec;
  rec.SetBufferCapacity(16);  // the floor SetBufferCapacity enforces
  rec.SetEnabled(true);
  for (int i = 0; i < 40; ++i) {
    rec.Emit(TraceEventKind::kLockWait, static_cast<uint64_t>(i) * 100, 1, 0);
  }
  rec.SetEnabled(false);
  EXPECT_EQ(rec.total_events(), 40u);
  EXPECT_EQ(rec.dropped_events(), 24u);
  std::string json = rec.ToChromeTrace();
  EXPECT_TRUE(JsonIsBalanced(json));
  // Only the newest 16 events survive: the last event (start 3900ns ->
  // ts 3.900us) must be present.
  EXPECT_NE(json.find("\"ts\":3.900"), std::string::npos);
}

TEST(TraceRecorderTest, ClearDiscardsBufferedEvents) {
  TraceRecorder rec;
  rec.SetEnabled(true);
  rec.Emit(TraceEventKind::kLockFallback, 10, 0, 0);
  rec.Clear();
  EXPECT_EQ(rec.total_events(), 0u);
  rec.Emit(TraceEventKind::kLockFallback, 10, 0, 0);
  EXPECT_EQ(rec.total_events(), 1u);
}

TEST(JsonHelpersTest, EscapeAndNumberFormats) {
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(JsonNumber(42.0), "42");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(0.0 / 0.0), "0");  // NaN
  EXPECT_TRUE(LooksLikeJsonNumber("12"));
  EXPECT_TRUE(LooksLikeJsonNumber("-0.5"));
  EXPECT_TRUE(LooksLikeJsonNumber("1e9"));
  EXPECT_FALSE(LooksLikeJsonNumber(""));
  EXPECT_FALSE(LooksLikeJsonNumber("12x"));
  EXPECT_FALSE(LooksLikeJsonNumber("1.2.3"));
  EXPECT_FALSE(LooksLikeJsonNumber("-"));
}

TEST(ThreadIdTest, DenseAndStablePerThread) {
  uint32_t id_main = CurrentThreadId();
  EXPECT_EQ(CurrentThreadId(), id_main);
  uint32_t id_other = 0;
  std::thread t([&id_other] { id_other = CurrentThreadId(); });
  t.join();
  EXPECT_NE(id_other, id_main);
  EXPECT_GT(id_other, 0u);
}

}  // namespace
}  // namespace obs
}  // namespace bpw
