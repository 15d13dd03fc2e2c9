#include "mc/replay.h"

#include <fstream>
#include <sstream>

namespace bpw {
namespace mc {

namespace {

constexpr char kMagic[] = "bpw-mc-replay";

std::string JoinPages(const std::vector<PageId>& pages) {
  std::ostringstream out;
  for (size_t i = 0; i < pages.size(); ++i) {
    if (i > 0) out << ",";
    out << pages[i];
  }
  return out.str();
}

bool ParsePages(const std::string& text, std::vector<PageId>* pages) {
  pages->clear();
  if (text.empty()) return true;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    try {
      pages->push_back(static_cast<PageId>(std::stoull(item)));
    } catch (...) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string SerializeReplay(const ReplayFile& replay) {
  const ScenarioConfig& c = replay.config;
  std::ostringstream out;
  out << kMagic << " " << replay.version << "\n";
  out << "scenario " << c.name << "\n";
  out << "param coordinator " << c.coordinator << "\n";
  out << "param policy " << c.policy << "\n";
  out << "param threads " << c.threads << "\n";
  out << "param pages " << c.pages << "\n";
  out << "param frames " << c.frames << "\n";
  out << "param queue_size " << c.queue_size << "\n";
  out << "param batch_threshold " << c.batch_threshold << "\n";
  out << "param ops_per_thread " << c.ops_per_thread << "\n";
  out << "param eviction_retries " << c.eviction_retries << "\n";
  if (!c.trace.empty()) out << "param trace " << JoinPages(c.trace) << "\n";
  out << "param serial_equivalence " << (c.check_serial_equivalence ? 1 : 0)
      << "\n";
  out << "param mutate_skip_victim_revalidation "
      << (c.mutate_skip_victim_revalidation ? 1 : 0) << "\n";
  out << "param mutate_skip_commit_before_victim "
      << (c.mutate_skip_commit_before_victim ? 1 : 0) << "\n";
  out << "param mutate_commit_without_lock "
      << (c.mutate_commit_without_lock ? 1 : 0) << "\n";
  out << "param max_decisions " << c.max_decisions << "\n";
  out << "violation " << replay.violation_kind << "\n";
  out << "choices";
  for (int choice : replay.choices) out << " " << choice;
  out << "\n";
  out << "end\n";
  return out.str();
}

StatusOr<ReplayFile> ParseReplay(const std::string& text) {
  ReplayFile replay;
  std::istringstream in(text);
  std::string line;

  if (!std::getline(in, line)) {
    return Status::InvalidArgument("replay: empty input");
  }
  {
    std::istringstream header(line);
    std::string magic;
    header >> magic >> replay.version;
    if (magic != kMagic) {
      return Status::InvalidArgument("replay: bad magic '" + magic + "'");
    }
    if (replay.version != 1) {
      return Status::InvalidArgument("replay: unsupported version " +
                                     std::to_string(replay.version));
    }
  }

  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == "end") {
      saw_end = true;
      break;
    }
    if (keyword == "scenario") {
      fields >> replay.config.name;
    } else if (keyword == "violation") {
      fields >> replay.violation_kind;
    } else if (keyword == "choices") {
      int choice;
      while (fields >> choice) replay.choices.push_back(choice);
    } else if (keyword == "param") {
      std::string key, value;
      fields >> key >> value;
      ScenarioConfig& c = replay.config;
      try {
        if (key == "coordinator") {
          c.coordinator = value;
        } else if (key == "policy") {
          c.policy = value;
        } else if (key == "threads") {
          c.threads = std::stoi(value);
        } else if (key == "pages") {
          c.pages = std::stoi(value);
        } else if (key == "frames") {
          c.frames = std::stoi(value);
        } else if (key == "queue_size") {
          c.queue_size = std::stoull(value);
        } else if (key == "batch_threshold") {
          c.batch_threshold = std::stoull(value);
        } else if (key == "ops_per_thread") {
          c.ops_per_thread = std::stoi(value);
        } else if (key == "eviction_retries") {
          c.eviction_retries = std::stoi(value);
        } else if (key == "trace") {
          if (!ParsePages(value, &c.trace)) {
            return Status::InvalidArgument("replay: bad trace '" + value + "'");
          }
        } else if (key == "serial_equivalence") {
          c.check_serial_equivalence = value == "1";
        } else if (key == "mutate_skip_victim_revalidation") {
          c.mutate_skip_victim_revalidation = value == "1";
        } else if (key == "mutate_skip_commit_before_victim") {
          c.mutate_skip_commit_before_victim = value == "1";
        } else if (key == "mutate_commit_without_lock") {
          c.mutate_commit_without_lock = value == "1";
        } else if (key == "max_decisions") {
          c.max_decisions = std::stoull(value);
        } else {
          // Unknown params are skipped so v1 readers tolerate additive
          // extensions.
        }
      } catch (...) {
        return Status::InvalidArgument("replay: bad value for param '" + key +
                                       "': '" + value + "'");
      }
    } else {
      return Status::InvalidArgument("replay: unknown keyword '" + keyword +
                                     "'");
    }
  }
  if (!saw_end) {
    return Status::InvalidArgument("replay: truncated (no 'end' line)");
  }
  return replay;
}

Status WriteReplayFile(const ReplayFile& replay, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IOError("replay: cannot open '" + path + "' for writing");
  }
  out << SerializeReplay(replay);
  out.flush();
  if (!out) return Status::IOError("replay: write to '" + path + "' failed");
  return Status::OK();
}

StatusOr<ReplayFile> ReadReplayFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("replay: cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseReplay(text.str());
}

ReplayOutcome RunReplay(const ReplayFile& replay, CooperativeScheduler& sched) {
  ReplayOutcome outcome;
  Scenario scenario(replay.config);
  size_t next = 0;
  uint64_t fallbacks = 0;
  ExecutionResult result = scenario.RunOnce(
      sched, [&replay, &next, &fallbacks](const DecisionContext& ctx) {
        int wanted = -1;
        if (next < replay.choices.size()) {
          wanted = replay.choices[next];
        }
        ++next;
        for (const Candidate& c : ctx.candidates) {
          if (c.thread == wanted) return wanted;
        }
        // Default rule: keep the current thread running when possible so a
        // truncated trace plays out with no gratuitous switches, else take
        // the lowest enabled id.
        ++fallbacks;
        for (const Candidate& c : ctx.candidates) {
          if (c.thread == ctx.current) return c.thread;
        }
        return ctx.candidates.front().thread;
      });
  // Fallbacks past the recorded trace are expected (the trace stops at the
  // violation; the run still has to wind down); only fallbacks *inside* it
  // indicate the trace no longer matches the scenario.
  outcome.fallbacks = fallbacks;
  outcome.result = std::move(result);
  return outcome;
}

std::string SerializeRunRecord(const ExecutionResult& result) {
  std::ostringstream out;
  out << "decisions";
  for (int choice : result.decisions) out << " " << choice;
  out << "\n";
  out << "signatures";
  for (uint64_t sig : result.signatures) out << " " << sig;
  out << "\n";
  out << "pruned " << (result.pruned ? 1 : 0) << "\n";
  out << "violated " << (result.violated ? 1 : 0) << "\n";
  out << "kind " << ViolationKindName(result.violation.kind) << "\n";
  out << "message " << result.violation.message << "\n";
  return out.str();
}

ReplayFile MinimizeReplay(const ReplayFile& replay, CooperativeScheduler& sched,
                          MinimizeStats* stats) {
  MinimizeStats local;
  local.shrunk_from = replay.choices.size();
  auto reproduces = [&](const std::vector<int>& choices,
                        ViolationKind kind) {
    ++local.attempts;
    ReplayFile candidate = replay;
    candidate.choices = choices;
    const ReplayOutcome outcome = RunReplay(candidate, sched);
    return outcome.result.violated && outcome.result.violation.kind == kind;
  };

  // Establish the baseline: what the full trace reproduces.
  ReplayOutcome baseline = RunReplay(replay, sched);
  if (!baseline.result.violated) {
    local.shrunk_to = replay.choices.size();
    if (stats != nullptr) *stats = local;
    return replay;  // nothing to preserve; refuse to "minimize" a clean run
  }
  const ViolationKind kind = baseline.result.violation.kind;

  // Phase 1: binary-search the shortest violating prefix. Violation is not
  // guaranteed monotone in prefix length, so verify the final answer.
  std::vector<int> best = replay.choices;
  size_t lo = 0, hi = best.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    std::vector<int> prefix(best.begin(), best.begin() + mid);
    if (reproduces(prefix, kind)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  {
    std::vector<int> prefix(best.begin(), best.begin() + hi);
    if (reproduces(prefix, kind)) best = std::move(prefix);
  }

  // Phase 2: greedy single-entry drops, scanning backwards so indices
  // stay valid as the tail shrinks.
  for (size_t i = best.size(); i-- > 0;) {
    std::vector<int> shorter = best;
    shorter.erase(shorter.begin() + i);
    if (reproduces(shorter, kind)) best = std::move(shorter);
  }

  ReplayFile minimized = replay;
  minimized.choices = std::move(best);
  minimized.violation_kind = ViolationKindName(kind);
  local.shrunk_to = minimized.choices.size();
  if (stats != nullptr) *stats = local;
  return minimized;
}

}  // namespace mc
}  // namespace bpw
