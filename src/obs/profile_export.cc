#include "obs/profile_export.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/json_reader.h"
#include "obs/json.h"

namespace bpw {
namespace obs {

namespace {

void AppendHistJson(std::string* out, const char* name,
                    const Histogram& hist) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"count\":%llu,\"mean\":%.1f,\"p50\":%.0f,"
                "\"p95\":%.0f,\"p99\":%.0f,\"max\":%llu",
                name, static_cast<unsigned long long>(hist.count()),
                hist.Mean(), hist.Percentile(50), hist.Percentile(95),
                hist.Percentile(99),
                static_cast<unsigned long long>(hist.max()));
  *out += buf;
  // Sparse [bucket_low, count] pairs: the exact distribution, so a reader
  // can rebuild the histogram rather than trust pre-computed percentiles.
  *out += ",\"buckets\":[";
  bool first = true;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    const uint64_t n = hist.BucketCount(b);
    if (n == 0) continue;
    if (!first) *out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "[%llu,%llu]",
                  static_cast<unsigned long long>(Histogram::BucketLow(b)),
                  static_cast<unsigned long long>(n));
    *out += buf;
  }
  *out += "]}";
}

void AppendFoldedLine(std::string* out, const std::string& stack,
                      uint64_t weight) {
  if (weight == 0) return;
  *out += stack;
  *out += ' ';
  *out += std::to_string(weight);
  *out += '\n';
}

}  // namespace

std::string ProfSnapshotToJson(const ProfSnapshot& snapshot) {
  std::string out = "{\"total_lock_nanos\":";
  out += std::to_string(snapshot.TotalLockNanos());
  out += ",\"sites\":[";
  bool first = true;
  char buf[256];
  for (const ProfSiteSnapshot& site : snapshot.sites) {
    if (!first) out += ',';
    first = false;
    out += "{\"label\":";
    out += JsonString(site.label);
    out += ",\"kind\":";
    out += site.kind == ProfSiteKind::kLock ? "\"lock\"" : "\"phase\"";
    out += ",\"file\":";
    out += JsonString(site.file);
    std::snprintf(
        buf, sizeof(buf),
        ",\"line\":%d,\"depth\":%d,\"uncontended\":%llu,"
        "\"contended\":%llu,\"wait_nanos\":%llu,\"hold_nanos\":%llu,"
        "\"max_waiters\":%llu,",
        site.line, site.depth,
        static_cast<unsigned long long>(site.uncontended),
        static_cast<unsigned long long>(site.contended),
        static_cast<unsigned long long>(site.wait_nanos),
        static_cast<unsigned long long>(site.hold_nanos),
        static_cast<unsigned long long>(site.max_waiters));
    out += buf;
    AppendHistJson(&out, "wait", site.wait_hist);
    out += ',';
    AppendHistJson(&out, "hold", site.hold_hist);
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {

uint64_t U64Or(const bench::JsonValue& obj, const std::string& key) {
  return static_cast<uint64_t>(obj.NumberOr(key, 0));
}

void HistFromJson(const bench::JsonValue& site, const char* name,
                  Histogram* hist) {
  const bench::JsonValue* h = site.Find(name);
  if (h == nullptr) return;
  const bench::JsonValue* buckets = h->Find("buckets");
  if (buckets == nullptr || !buckets->is_array()) return;
  for (const bench::JsonValue& pair : buckets->array) {
    if (!pair.is_array() || pair.array.size() != 2) continue;
    hist->Add(static_cast<uint64_t>(pair.array[0].number_value),
              static_cast<uint64_t>(pair.array[1].number_value));
  }
}

}  // namespace

StatusOr<ProfSnapshot> ProfSnapshotFromJson(const std::string& text) {
  StatusOr<bench::JsonValue> parsed = bench::ParseJson(text);
  if (!parsed.ok()) return parsed.status();
  const bench::JsonValue* root = &parsed.value();
  // A full bpw_run --json document embeds the report under "contention".
  if (root->Find("sites") == nullptr && root->Find("contention") != nullptr) {
    root = root->Find("contention");
  }
  const bench::JsonValue* sites = root->Find("sites");
  if (sites == nullptr || !sites->is_array()) {
    return Status::InvalidArgument(
        "not a contention report: no \"sites\" array (expected the JSON "
        "from bpw_run --contention-report)");
  }
  ProfSnapshot snapshot;
  snapshot.sites.reserve(sites->array.size());
  for (const bench::JsonValue& s : sites->array) {
    if (!s.is_object()) {
      return Status::InvalidArgument("contention report: non-object site");
    }
    ProfSiteSnapshot row;
    row.label = s.StringOr("label", "?");
    row.file = s.StringOr("file", "");
    row.line = static_cast<int>(s.NumberOr("line", 0));
    row.kind = s.StringOr("kind", "lock") == "phase" ? ProfSiteKind::kPhase
                                                     : ProfSiteKind::kLock;
    row.depth = static_cast<int>(s.NumberOr("depth", 0));
    row.uncontended = U64Or(s, "uncontended");
    row.contended = U64Or(s, "contended");
    row.wait_nanos = U64Or(s, "wait_nanos");
    row.hold_nanos = U64Or(s, "hold_nanos");
    row.max_waiters = U64Or(s, "max_waiters");
    HistFromJson(s, "wait", &row.wait_hist);
    HistFromJson(s, "hold", &row.hold_hist);
    snapshot.sites.push_back(std::move(row));
  }
  return snapshot;
}

std::string ProfSnapshotToTable(const ProfSnapshot& snapshot) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-40s %10s %10s %14s %14s %10s %10s %6s\n",
                "site", "events", "contended", "wait_ns", "hold_ns",
                "wait_p95", "hold_p95", "maxw");
  out += buf;
  for (const ProfSiteSnapshot& site : snapshot.sites) {
    if (site.events() == 0) continue;
    // Phase rows indent by depth so the commit-phase tree reads as one.
    std::string label(static_cast<size_t>(site.depth) * 2, ' ');
    label += site.label;
    const char* mark = site.kind == ProfSiteKind::kLock ? "L" : "P";
    std::snprintf(
        buf, sizeof(buf),
        "%-40s %10llu %10llu %14llu %14llu %10.0f %10.0f %6llu %s\n",
        label.c_str(), static_cast<unsigned long long>(site.events()),
        static_cast<unsigned long long>(site.contended),
        static_cast<unsigned long long>(site.wait_nanos),
        static_cast<unsigned long long>(site.hold_nanos),
        site.wait_hist.Percentile(95), site.hold_hist.Percentile(95),
        static_cast<unsigned long long>(site.max_waiters), mark);
    out += buf;
  }
  return out;
}

std::string ProfSnapshotToFolded(const ProfSnapshot& snapshot) {
  std::string out;
  for (const ProfSiteSnapshot& site : snapshot.sites) {
    if (site.kind == ProfSiteKind::kLock) {
      AppendFoldedLine(&out, site.label + ";wait", site.wait_nanos);
      AppendFoldedLine(&out, site.label + ";hold", site.hold_nanos);
    } else {
      // Exclusive time: nested phases are separate rows of this snapshot,
      // so inclusive weights would double-count in the flame graph.
      AppendFoldedLine(&out, site.label, site.hold_nanos);
    }
  }
  return out;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  if (path == "-") {
    return std::fwrite(content.data(), 1, content.size(), stdout) ==
           content.size();
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  return std::fclose(f) == 0 && written == content.size();
}

namespace {

/// One side of the reconciliation: a label with its score and its rank
/// (descending by score, 1-based) within that side.
struct RankedRow {
  std::string label;
  double score = 0;
  int rank = 0;
};

std::vector<RankedRow> RankDescending(std::map<std::string, double> scores) {
  std::vector<RankedRow> rows;
  rows.reserve(scores.size());
  for (auto& [label, score] : scores) rows.push_back({label, score, 0});
  std::sort(rows.begin(), rows.end(), [](const RankedRow& a,
                                         const RankedRow& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.label < b.label;  // deterministic tie-break
  });
  for (size_t i = 0; i < rows.size(); ++i) rows[i].rank = int(i) + 1;
  return rows;
}

}  // namespace

StatusOr<std::string> ReconcileHoldCosts(const std::string& costs_json,
                                         const ProfSnapshot& snapshot) {
  StatusOr<bench::JsonValue> parsed = bench::ParseJson(costs_json);
  if (!parsed.ok()) return parsed.status();
  const bench::JsonValue* sites = parsed.value().Find("sites");
  if (sites == nullptr || !sites->is_array()) {
    return Status::InvalidArgument(
        "not a static-costs document: no \"sites\" array (expected the "
        "JSON from bpw_check --costs)");
  }

  // Static side: label -> max hold-site weight. Sites without a profiler
  // label (a policy's `this` capability, say) have no measured counterpart
  // and are skipped — the join is over instrumented locks.
  std::map<std::string, double> static_score;
  for (const bench::JsonValue& s : sites->array) {
    if (!s.is_object()) continue;
    const std::string label = s.StringOr("label", "");
    if (label.empty()) continue;
    const double w = s.NumberOr("weight", 0);
    auto [it, inserted] = static_score.emplace(label, w);
    if (!inserted && w > it->second) it->second = w;
  }

  // Measured side: mean per-acquisition hold nanoseconds of each lock row.
  std::map<std::string, double> measured_score;
  for (const ProfSiteSnapshot& site : snapshot.sites) {
    if (site.kind != ProfSiteKind::kLock) continue;
    if (site.hold_hist.count() == 0) continue;
    measured_score[site.label] = site.hold_hist.Mean();
  }

  // Ranks are computed within the joined label set: a workload only
  // exercises one coordinator, and "the static model ranks an unexercised
  // lock higher" is not a divergence worth flagging. Static-only labels
  // are still listed (unranked) so a site the workload never contended
  // stays visible.
  std::map<std::string, double> joined_static = static_score;
  for (auto it = joined_static.begin(); it != joined_static.end();) {
    it = measured_score.count(it->first) == 0 ? joined_static.erase(it)
                                              : std::next(it);
  }
  const std::vector<RankedRow> stat = RankDescending(joined_static);
  const std::vector<RankedRow> meas = RankDescending(measured_score);
  std::map<std::string, const RankedRow*> stat_by_label, meas_by_label;
  for (const RankedRow& r : stat) stat_by_label[r.label] = &r;
  for (const RankedRow& r : meas) meas_by_label[r.label] = &r;

  // Render in measured order (the measured ranking is ground truth for
  // "where did hold time actually go"), then static-only rows.
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %12s %6s %14s %6s %7s  %s\n",
                "label", "static-wt", "s-rank", "measured-ns", "m-rank",
                "d-rank", "verdict");
  out += line;
  int divergent = 0;
  auto emit = [&](const std::string& label, const RankedRow* s,
                  const RankedRow* m) {
    std::string verdict;
    std::string drank = "-";
    if (s != nullptr && m != nullptr) {
      const int d = s->rank - m->rank;
      drank = std::to_string(d);
      if (d >= 2 || d <= -2) {
        verdict = "DIVERGES";
        ++divergent;
      } else {
        verdict = "agrees";
      }
    } else if (s == nullptr) {
      verdict = "measured only (site not in static costs)";
    } else {
      verdict = "static only (never contended in this run)";
    }
    std::snprintf(line, sizeof(line), "%-28s %12s %6s %14s %6s %7s  %s\n",
                  label.c_str(),
                  s != nullptr ? std::to_string(int64_t(s->score)).c_str()
                               : "-",
                  s != nullptr && s->rank > 0 ? std::to_string(s->rank).c_str()
                                              : "-",
                  m != nullptr ? std::to_string(int64_t(m->score)).c_str()
                               : "-",
                  m != nullptr ? std::to_string(m->rank).c_str() : "-",
                  drank.c_str(), verdict.c_str());
    out += line;
  };
  for (const RankedRow& m : meas) {
    auto s = stat_by_label.find(m.label);
    emit(m.label, s != stat_by_label.end() ? s->second : nullptr, &m);
  }
  for (const auto& [label, score] : static_score) {
    if (meas_by_label.count(label) > 0) continue;
    const RankedRow unranked{label, score, 0};
    emit(label, &unranked, nullptr);
  }
  std::snprintf(line, sizeof(line),
                "\n%zu measured lock site(s), %zu static label(s), "
                "%d rank divergence(s) (|d-rank| >= 2)\n",
                meas.size(), static_score.size(), divergent);
  out += line;
  return out;
}

}  // namespace obs
}  // namespace bpw
