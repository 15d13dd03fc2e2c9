#include "buffer/partitioned_pool.h"

#include <cassert>

namespace bpw {

PartitionedPool::PartitionedPool(const BufferPoolConfig& config,
                                 size_t num_partitions,
                                 const SystemConfig& system,
                                 StorageEngine* storage) {
  assert(num_partitions > 0);
  num_partitions = std::max<size_t>(1, num_partitions);
  const size_t base = config.num_frames / num_partitions;
  assert(base > 0);
  pools_.reserve(num_partitions);
  for (size_t i = 0; i < num_partitions; ++i) {
    BufferPoolConfig sub_config = config;
    sub_config.num_frames =
        i + 1 == num_partitions ? config.num_frames - base * i : base;
    auto coordinator = CreateCoordinator(system, sub_config.num_frames);
    assert(coordinator.ok());
    pools_.push_back(std::make_unique<BufferPool>(
        sub_config, storage, std::move(coordinator).value()));
  }
}

std::unique_ptr<PartitionedPool::Session> PartitionedPool::CreateSession() {
  auto session = std::unique_ptr<Session>(new Session());
  session->subs_.reserve(pools_.size());
  for (auto& pool : pools_) {
    session->subs_.push_back(pool->CreateSession());
  }
  return session;
}

StatusOr<PageHandle> PartitionedPool::FetchPage(Session& session,
                                                PageId page) {
  const size_t partition = PartitionFor(page);
  return pools_[partition]->FetchPage(*session.subs_[partition], page);
}

LockStats PartitionedPool::lock_stats() const {
  LockStats total;
  for (const auto& pool : pools_) {
    total += pool->coordinator().lock_stats();
  }
  return total;
}

void PartitionedPool::ResetLockStats() {
  for (auto& pool : pools_) {
    pool->coordinator().ResetLockStats();
  }
}

}  // namespace bpw
