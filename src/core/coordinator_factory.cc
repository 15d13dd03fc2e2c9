#include "core/coordinator_factory.h"

#include "core/bp_wrapper.h"
#include "core/clock_coordinator.h"
#include "core/serialized_coordinator.h"
#include "policy/policy_factory.h"

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

  auto policy = CreatePolicy(config.policy, num_frames);
  if (!policy.ok()) return policy.status();

  if (config.coordinator == "serialized") {
    SerializedCoordinator::Options options;
    options.prefetch = config.prefetch;
    options.instrumentation = config.instrumentation;
    return std::unique_ptr<Coordinator>(
        new SerializedCoordinator(std::move(policy).value(), options));
  }
  if (config.coordinator == "bp-wrapper") {
    BpWrapperCoordinator::Options options;
    options.queue_size = config.queue_size;
    options.batch_threshold = config.batch_threshold;
    options.prefetch = config.prefetch;
    options.instrumentation = config.instrumentation;
    return std::unique_ptr<Coordinator>(
        new BpWrapperCoordinator(std::move(policy).value(), options));
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
  return Status::InvalidArgument("unknown paper system: " + name);
}

std::vector<std::string> PaperSystemNames() {
  return {"pgClock", "pg2Q", "pgPre", "pgBat", "pgBatPre"};
}

}  // namespace bpw
