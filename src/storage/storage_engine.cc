#include "storage/storage_engine.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "util/clock.h"

namespace bpw {

StorageEngine::StorageEngine(uint64_t num_pages, size_t page_size,
                             StorageLatencyModel model, bool materialize)
    : num_pages_(num_pages),
      page_size_(page_size),
      model_(model),
      materialize_(materialize),
      verification_(num_pages * 2, 0),
      stripes_(kLockStripes) {
  if (materialize_) {
    data_.resize(num_pages_ * page_size_, 0);
  }
  // Initialize every page with a version-0 stamp so a freshly-read page is
  // identifiable.
  std::vector<uint8_t> tmp(page_size_, 0);
  for (PageId p = 0; p < num_pages_; ++p) {
    StampPage(tmp.data(), page_size_, p, 0);
    std::memcpy(&verification_[p * 2], tmp.data(), 16);
    if (materialize_) {
      std::memcpy(&data_[p * page_size_], tmp.data(), 16);
    }
  }
  metrics_source_ = obs::ScopedMetricSource(
      &obs::MetricsRegistry::Default(), [this](obs::MetricsSnapshot& snap) {
        const StorageStats s = stats();
        snap.Add("storage.reads", static_cast<double>(s.reads));
        snap.Add("storage.writes", static_cast<double>(s.writes));
        snap.Add("storage.read_nanos", static_cast<double>(s.read_nanos));
        snap.Add("storage.write_nanos", static_cast<double>(s.write_nanos));
      });
}

uint64_t StorageEngine::ApplyLatency(uint64_t base_nanos,
                                     uint64_t extra_nanos) {
  if (base_nanos == 0 && extra_nanos == 0) return 0;
  uint64_t nanos = base_nanos;
  if (model_.exponential && base_nanos != 0) {
    double u;
    {
      SpinLockGuard guard(rng_lock_);
      u = rng_.NextDouble();
    }
    // Exponential with the configured mean; clamp the tail at 8x mean so a
    // single unlucky draw cannot dominate a short benchmark run.
    double draw = -std::log(1.0 - u) * static_cast<double>(base_nanos);
    nanos = static_cast<uint64_t>(
        std::min(draw, 8.0 * static_cast<double>(base_nanos)));
  }
  // Injected spikes ride on the same wait mechanism as modelled latency, so
  // sleeping and busy-wait configurations both honour them.
  nanos += extra_nanos;
  if (model_.use_sleep) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
  } else {
    BusyWaitNanos(nanos);
  }
  return nanos;
}

Status StorageEngine::ReadPage(PageId page, void* buf) {
  if (page >= num_pages_) {
    return Status::OutOfRange("read past end of device");
  }
  uint64_t extra_nanos = 0;
  if (testing::FaultInjector* injector =
          fault_injector_.load(std::memory_order_acquire)) {
    testing::FaultDecision d = injector->ForRead(page);
    if (!d.status.ok()) return d.status;
    extra_nanos = d.extra_latency_nanos;
  }
  const uint64_t nanos = ApplyLatency(model_.read_nanos, extra_nanos);
  {
    Stripe& stripe = StripeFor(page);
    stripe.lock.lock();
    if (materialize_) {
      std::memcpy(buf, &data_[page * page_size_], page_size_);
    } else {
      std::memset(buf, 0, page_size_);
      std::memcpy(buf, &verification_[page * 2], 2 * sizeof(uint64_t));
    }
    stripe.reads.Add(1);
    stripe.read_nanos.Add(nanos);
    stripe.lock.unlock();
  }
  return Status::OK();
}

Status StorageEngine::WritePage(PageId page, const void* buf) {
  if (page >= num_pages_) {
    return Status::OutOfRange("write past end of device");
  }
  uint64_t extra_nanos = 0;
  bool tear = false;
  if (testing::FaultInjector* injector =
          fault_injector_.load(std::memory_order_acquire)) {
    testing::FaultDecision d = injector->ForWrite(page);
    if (!d.status.ok()) return d.status;
    extra_nanos = d.extra_latency_nanos;
    tear = d.tear_write;
  }
  const uint64_t nanos = ApplyLatency(model_.write_nanos, extra_nanos);
  {
    Stripe& stripe = StripeFor(page);
    stripe.lock.lock();
    if (materialize_) {
      std::memcpy(&data_[page * page_size_], buf,
                  tear ? sizeof(uint64_t) : page_size_);
    }
    // A torn write persists only the first stamp word: word 0 carries the
    // new (page, version) mix while word 1 keeps the old version, which is
    // exactly the inconsistency StampConsistent() detects.
    std::memcpy(&verification_[page * 2], buf,
                tear ? sizeof(uint64_t) : 2 * sizeof(uint64_t));
    stripe.writes.Add(1);
    stripe.write_nanos.Add(nanos);
    stripe.lock.unlock();
  }
  return Status::OK();
}

bool StorageEngine::StampConsistent(PageId page) const {
  const uint64_t word = verification_[page * 2];
  const uint64_t version = verification_[page * 2 + 1];
  return word == page * 0x9E3779B97F4A7C15ULL + version;
}

StorageStats StorageEngine::stats() const {
  StorageStats s;
  for (const CacheAligned<Stripe>& stripe : stripes_) {
    s.reads += stripe->reads.value();
    s.writes += stripe->writes.value();
    s.read_nanos += stripe->read_nanos.value();
    s.write_nanos += stripe->write_nanos.value();
  }
  return s;
}

void StorageEngine::ResetStats() {
  for (CacheAligned<Stripe>& stripe : stripes_) {
    stripe->lock.lock();
    stripe->reads.Reset();
    stripe->writes.Reset();
    stripe->read_nanos.Reset();
    stripe->write_nanos.Reset();
    stripe->lock.unlock();
  }
}

uint64_t StorageEngine::VerificationWord(PageId page) const {
  return verification_[page * 2];
}

void StorageEngine::StampPage(void* buf, size_t page_size, PageId page,
                              uint64_t version) {
  (void)page_size;
  // Word 0: page id mixed with version (the verification word).
  // Word 1: raw version, so tests can read both back.
  uint64_t w0 = page * 0x9E3779B97F4A7C15ULL + version;
  auto* words = static_cast<uint64_t*>(buf);
  words[0] = w0;
  words[1] = version;
}

std::pair<PageId, uint64_t> StorageEngine::ReadStamp(const void* buf) {
  const auto* words = static_cast<const uint64_t*>(buf);
  return {words[0], words[1]};
}

}  // namespace bpw
