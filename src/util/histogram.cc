#include "util/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

namespace bpw {

Histogram::Histogram() : buckets_(kNumBuckets, 0) { Reset(); }

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = std::numeric_limits<uint64_t>::max();
  max_ = 0;
  sum_ = 0;
}

int Histogram::BucketFor(uint64_t value) {
  if (value < 4) return static_cast<int>(value);
  // log2(value) >= 2 here. Use the top two bits below the leading bit as the
  // linear sub-bucket index.
  int log2 = 63 - std::countl_zero(value);
  int sub = static_cast<int>((value >> (log2 - 2)) & 0x3);
  int bucket = log2 * 4 + sub - 4;  // value 4 (log2=2, sub=0) -> bucket 4
  return std::min(bucket, kNumBuckets - 1);
}

uint64_t Histogram::BucketLow(int bucket) {
  if (bucket < 4) return static_cast<uint64_t>(bucket);
  int log2 = (bucket + 4) / 4;
  // The last buckets lie past 2^64 and BucketFor never fills them; their
  // bound saturates rather than shifting by 64 (undefined behaviour).
  if (log2 > 63) return std::numeric_limits<uint64_t>::max();
  int sub = (bucket + 4) % 4;
  return (1ULL << log2) + (static_cast<uint64_t>(sub) << (log2 - 2));
}

void Histogram::Record(uint64_t value) {
  buckets_[BucketFor(value)]++;
  count_++;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  sum_ += static_cast<double>(value);
}

void Histogram::Add(uint64_t value, uint64_t count) {
  if (count == 0) return;
  buckets_[BucketFor(value)] += count;
  count_ += count;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  sum_ += static_cast<double>(value) * static_cast<double>(count);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
}

uint64_t Histogram::min() const { return count_ == 0 ? 0 : min_; }

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  double target = p / 100.0 * static_cast<double>(count_);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (static_cast<double>(seen + buckets_[i]) >= target) {
      double lo = static_cast<double>(BucketLow(i));
      double hi = i + 1 < kNumBuckets ? static_cast<double>(BucketLow(i + 1))
                                      : static_cast<double>(max_);
      double frac = (target - static_cast<double>(seen)) /
                    static_cast<double>(buckets_[i]);
      double v = lo + frac * (hi - lo);
      return std::clamp(v, static_cast<double>(min()),
                        static_cast<double>(max_));
    }
    seen += buckets_[i];
  }
  return static_cast<double>(max_);
}

std::string Histogram::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1f p50=%.0f p95=%.0f p99=%.0f max=%llu",
                static_cast<unsigned long long>(count_), Mean(),
                Percentile(50), Percentile(95), Percentile(99),
                static_cast<unsigned long long>(max_));
  return buf;
}

}  // namespace bpw
