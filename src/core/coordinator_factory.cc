#include "core/coordinator_factory.h"

#include "core/clock_coordinator.h"
#include "core/combining_coordinator.h"
#include "core/serialized_coordinator.h"
#include "core/shared_queue_coordinator.h"
#include "core/sharded_coordinator.h"
#include "policy/policy_factory.h"
#include "policy/sharded_policy.h"

namespace bpw {

StatusOr<std::unique_ptr<Coordinator>> CreateCoordinator(
    const SystemConfig& config, size_t num_frames) {
  if (config.coordinator == "clock-lockfree") {
    if (config.policy == "clock") {
      return std::unique_ptr<Coordinator>(new ClockCoordinator(
          std::make_unique<ClockPolicy>(num_frames),
          ClockCoordinator::Options{config.instrumentation}));
    }
    if (config.policy == "gclock") {
      return std::unique_ptr<Coordinator>(new ClockCoordinator(
          std::make_unique<GClockPolicy>(num_frames),
          ClockCoordinator::Options{config.instrumentation}));
    }
    return Status::InvalidArgument(
        "clock-lockfree coordinator requires a clock/gclock policy, got: " +
        config.policy);
  }

  if (config.coordinator == "sharded") {
    // The sharded coordinator owns a ShardedPolicy built from the inner
    // policy name; config.policy here names the *inner* policy.
    const size_t shards = config.policy_shards == 0 ? 1 : config.policy_shards;
    auto sharded = ShardedPolicy::Create(config.policy, shards, num_frames);
    if (!sharded.ok()) return sharded.status();
    ShardedCoordinator::Options options;
    options.queue_size = config.queue_size;
    options.prefetch = config.prefetch;
    options.rebalance_interval = config.rebalance_interval;
    options.instrumentation = config.instrumentation;
    options.test_shard_double_track = config.test_shard_double_track;
    options.test_shard_stale_eviction = config.test_shard_stale_eviction;
    return std::unique_ptr<Coordinator>(
        new ShardedCoordinator(std::move(sharded).value(), options));
  }

  auto policy = CreatePolicy(config.policy, num_frames);
  if (!policy.ok()) return policy.status();

  if (config.coordinator == "serialized") {
    SerializedCoordinator::Options options;
    options.prefetch = config.prefetch;
    options.instrumentation = config.instrumentation;
    return std::unique_ptr<Coordinator>(
        new SerializedCoordinator(std::move(policy).value(), options));
  }
  if (config.coordinator == "shared-queue") {
    SharedQueueCoordinator::Options options;
    options.queue_size = config.queue_size;
    options.batch_threshold = config.batch_threshold;
    options.instrumentation = config.instrumentation;
    return std::unique_ptr<Coordinator>(
        new SharedQueueCoordinator(std::move(policy).value(), options));
  }
  // "bp-wrapper" is the combining coordinator without publication slots:
  // the plain Fig. 4 protocol.
  if (config.coordinator == "bp-wrapper" ||
      config.coordinator == "combining") {
    CombiningCoordinator::Options options;
    if (config.coordinator == "bp-wrapper") options.max_slots = 0;
    options.queue_size = config.queue_size;
    options.batch_threshold = config.batch_threshold;
    options.prefetch = config.prefetch;
    options.instrumentation = config.instrumentation;
    options.test_drain_twice = config.test_combine_drain_twice;
    options.test_clear_ready_before_apply =
        config.test_combine_clear_ready_before_apply;
    options.test_skip_release = config.test_combine_skip_release;
    return std::unique_ptr<Coordinator>(
        new CombiningCoordinator(std::move(policy).value(), options));
  }
  return Status::InvalidArgument("unknown coordinator: " + config.coordinator);
}

StatusOr<SystemConfig> PaperSystemConfig(const std::string& name) {
  SystemConfig config;
  if (name == "pgClock") {
    config.policy = "clock";
    config.coordinator = "clock-lockfree";
    return config;
  }
  config.policy = "2q";
  if (name == "pg2Q") {
    config.coordinator = "serialized";
    return config;
  }
  if (name == "pgPre") {
    config.coordinator = "serialized";
    config.prefetch = true;
    return config;
  }
  if (name == "pgBat") {
    config.coordinator = "bp-wrapper";
    return config;
  }
  if (name == "pgBatPre") {
    config.coordinator = "bp-wrapper";
    config.prefetch = true;
    return config;
  }
  if (name == "pgBat++") {
    config.coordinator = "combining";
    config.prefetch = true;
    return config;
  }
  if (name == "pgShard") {
    config.coordinator = "sharded";
    config.prefetch = true;
    config.policy_shards = 8;
    return config;
  }
  return Status::InvalidArgument("unknown paper system: " + name);
}

std::vector<std::string> PaperSystemNames() {
  return {"pgClock", "pg2Q", "pgPre", "pgBat", "pgBatPre", "pgBat++",
          "pgShard"};
}

}  // namespace bpw
