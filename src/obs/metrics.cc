#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"
#include "util/clock.h"

namespace bpw {
namespace obs {

MetricsSnapshot MetricsSnapshot::DeltaFrom(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  delta.wall_nanos = wall_nanos - earlier.wall_nanos;
  delta.gauges = gauges;
  for (const auto& [name, v] : values) {
    delta.values[name] = gauges.count(name) != 0 ? v : v - earlier.value(name);
  }
  return delta;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"t_ms\":";
  out += JsonNumber(static_cast<double>(wall_nanos) / 1e6);
  out += ",\"values\":{";
  bool first = true;
  for (const auto& [name, v] : values) {
    if (!first) out += ',';
    first = false;
    out += JsonString(name);
    out += ':';
    out += JsonNumber(v);
  }
  out += "}}";
  return out;
}

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked on purpose: worker threads (and their components' sources) may
  // outlive static destruction order.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

uint64_t MetricsRegistry::RegisterSource(MetricSourceFn fn) {
  MutexGuard guard(mu_);
  const uint64_t id = next_source_id_++;
  sources_.emplace_back(id, std::move(fn));
  return id;
}

void MetricsRegistry::UnregisterSource(uint64_t id) {
  MutexGuard guard(mu_);
  sources_.erase(
      std::remove_if(sources_.begin(), sources_.end(),
                     [id](const auto& s) { return s.first == id; }),
      sources_.end());
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.wall_nanos = NowNanos();
  MutexGuard guard(mu_);
  for (const auto& [id, fn] : sources_) {
    (void)id;
    fn(snap);
  }
  return snap;
}

}  // namespace obs
}  // namespace bpw
