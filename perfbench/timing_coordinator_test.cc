// The traced run's TimingCoordinator must not change what the stack does:
// a one-worker count-based replay makes the same replacement decisions with
// and without it.
#include "timing_coordinator.h"

#include <gtest/gtest.h>

#include "replay.h"

namespace perfbench {
namespace {

struct Outcome {
  Tally tally;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t lock_acquisitions = 0;
  uint64_t policy_fingerprint = 0;
  bpw::obs::MetricsSnapshot coord;
};

Outcome Replay(const Stream& stream, bool traced) {
  StackConfig config;
  config.footprint_pages = 8192;
  config.num_frames = 2048;
  config.traced = traced;
  auto stack = BuildStack(config);
  EXPECT_TRUE(stack.ok()) << stack.status().ToString();
  bpw::BufferPool& pool = *stack.value().pool;

  bpw::obs::MetricsRegistry& registry = bpw::obs::MetricsRegistry::Default();
  const bpw::obs::MetricsSnapshot before = registry.Snapshot();
  Outcome out;
  out.tally = ReplayCount(pool, stream, 300'000);
  const bpw::obs::MetricsSnapshot delta = registry.Snapshot().DeltaFrom(before);
  for (const auto& [name, value] : delta.values) {
    if (name.rfind("coord.", 0) == 0) out.coord.Add(name, value);
  }
  out.evictions = pool.evictions();
  out.writebacks = pool.writebacks();
  out.lock_acquisitions = pool.coordinator().lock_stats().acquisitions;
  out.policy_fingerprint = pool.coordinator().StateFingerprint();
  EXPECT_TRUE(pool.FlushAll().ok());
  EXPECT_TRUE(pool.CheckIntegrity().ok());
  return out;
}

TEST(TimingCoordinatorTest, ReplayIsIdenticalWithAndWithoutDecorator) {
  bpw::WorkloadSpec spec;
  spec.name = "dbt2";
  spec.num_pages = 8192;
  spec.seed = 3;
  auto streams = GenerateStreams(spec, 1, 100'000);
  ASSERT_TRUE(streams.ok());
  const Stream& stream = streams.value().per_worker[0];

  const Outcome plain = Replay(stream, /*traced=*/false);
  const Outcome timed = Replay(stream, /*traced=*/true);

  EXPECT_GT(plain.tally.misses, 0u);
  EXPECT_GT(plain.evictions, 0u);
  EXPECT_GT(plain.writebacks, 0u);
  EXPECT_EQ(plain.tally.stamp_errors, 0u);
  EXPECT_EQ(plain.tally.failed, 0u);
  EXPECT_EQ(plain.tally.hits, timed.tally.hits);
  EXPECT_EQ(plain.tally.misses, timed.tally.misses);
  EXPECT_EQ(plain.evictions, timed.evictions);
  EXPECT_EQ(plain.writebacks, timed.writebacks);
  EXPECT_EQ(plain.lock_acquisitions, timed.lock_acquisitions);
  EXPECT_EQ(plain.policy_fingerprint, timed.policy_fingerprint);
  EXPECT_FALSE(plain.coord.values.empty());
  EXPECT_EQ(plain.coord.values, timed.coord.values);
}

/// A coordinator that only reports whether frame tags were bound to it.
class TagProbe final : public bpw::Coordinator {
 public:
  bool tags_bound() const { return frame_tags_ != nullptr; }

  std::unique_ptr<ThreadSlot> RegisterThread() override {
    return std::make_unique<ThreadSlot>();
  }
  void OnHit(ThreadSlot*, bpw::PageId, bpw::FrameId) override {}
  bpw::StatusOr<Victim> ChooseVictim(ThreadSlot*, const EvictableFn&,
                                     bpw::PageId) override {
    return bpw::Status::ResourceExhausted("probe");
  }
  void CompleteMiss(ThreadSlot*, bpw::PageId, bpw::FrameId) override {}
  bool OnErase(ThreadSlot*, bpw::PageId, bpw::FrameId) override {
    return false;
  }
  void FlushSlot(ThreadSlot*) override {}
  bpw::LockStats lock_stats() const override { return {}; }
  void ResetLockStats() override {}
  const bpw::ReplacementPolicy& policy() const override { std::abort(); }
  bpw::ReplacementPolicy* mutable_policy() override { return nullptr; }
  std::string name() const override { return "probe"; }
};

TEST(TimingCoordinatorTest, HandsFrameTagsToWrappedCoordinator) {
  auto probe = std::make_unique<TagProbe>();
  const TagProbe* raw = probe.get();
  TimingCoordinator timing(std::move(probe));
  std::vector<std::atomic<bpw::PageId>> tags(4);
  timing.BindFrameTags(tags.data(), tags.size());
  EXPECT_FALSE(raw->tags_bound());
  auto slot = timing.RegisterThread();
  EXPECT_TRUE(raw->tags_bound());
}

}  // namespace
}  // namespace perfbench
