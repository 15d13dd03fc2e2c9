// bpw_modelcheck: systematic bounded exploration of the buffer-pool stack.
//
// Explore a scenario:
//   bpw_modelcheck --scenario eviction --bound 2
// Record and minimize a violation (one command line):
//   bpw_modelcheck --scenario eviction --bound 2
//       --mutation skip_victim_revalidation --replay-out eviction.replay
// Re-execute a recorded trace:
//   bpw_modelcheck --replay eviction.replay
//
// Exit codes: 0 = explored clean (or replay reproduced nothing), 1 =
// violation found (or replay reproduced one), 2 = usage/config error.
//
// Requires a build with schedule points (the default). Under
// -DBPW_SCHEDULE_POINTS=0 the binary reports that and exits 0, so script
// pipelines degrade loudly but gracefully.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>

#include "mc/explorer.h"
#include "mc/replay.h"
#include "mc/scenario.h"
#include "testing/schedule_point.h"
#include "util/flag_parse.h"

namespace {

void PrintUsage() {
  std::cout <<
      "usage: bpw_modelcheck --scenario NAME [options]\n"
      "       bpw_modelcheck --replay FILE [--minimize]\n"
      "       bpw_modelcheck --list\n"
      "\n"
      "exploration options:\n"
      "  --scenario NAME        preset scenario (see --list)\n"
      "  --bound N              preemption bound (default 2)\n"
      "  --coordinator NAME     override: serialized|bp-wrapper\n"
      "  --policy NAME          override: lru|fifo|clock|gclock|...\n"
      "  --threads N            override worker count\n"
      "  --pages N --frames N   override working set / buffer size\n"
      "  --queue N --threshold N  override BP-Wrapper S and T\n"
      "  --ops N                override ops per thread\n"
      "  --budget N             per-execution decision cap (default 10000)\n"
      "  --max-execs N          stop after N executions (0 = unlimited)\n"
      "  --time-limit-ms N      stop after N ms (0 = unlimited)\n"
      "  --mutation NAME        seed a known bug: skip_victim_revalidation |\n"
      "                         skip_commit_before_victim | commit_without_lock\n"
      "  --no-dpor              disable sleep-set pruning\n"
      "  --no-state-dedup       disable visited-state dedup\n"
      "  --replay-out FILE      write (and minimize) the violating trace\n"
      "\n"
      "replay options:\n"
      "  --replay FILE          re-execute a recorded trace\n"
      "  --minimize             shrink the trace first, print the result\n";
}

struct Args {
  std::string scenario;
  std::string replay_path;
  std::string replay_out;
  std::string mutation;
  std::string coordinator;
  std::string policy;
  int bound = 2;
  int threads = 0;
  int pages = 0;
  int frames = 0;
  int ops = 0;
  size_t queue = 0;
  size_t threshold = 0;
  uint64_t budget = 0;
  uint64_t max_execs = 0;
  uint64_t time_limit_ms = 0;
  bool list = false;
  bool minimize = false;
  bool no_dpor = false;
  bool no_state_dedup = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "bpw_modelcheck: " << argv[i] << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = nullptr;
    // A malformed number is a usage error naming the flag.
    auto number = [&](uint64_t max, auto* out) {
      if ((value = need_value(i)) == nullptr) return false;
      auto parsed = bpw::ParseUintFlag(flag, value, max);
      if (!parsed.ok()) {
        std::cerr << "bpw_modelcheck: " << parsed.status().ToString() << "\n";
        return false;
      }
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(*parsed);
      return true;
    };
    constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
    constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();
    if (flag == "--help" || flag == "-h") {
      PrintUsage();
      std::exit(0);
    } else if (flag == "--list") {
      args.list = true;
    } else if (flag == "--minimize") {
      args.minimize = true;
    } else if (flag == "--no-dpor") {
      args.no_dpor = true;
    } else if (flag == "--no-state-dedup") {
      args.no_state_dedup = true;
    } else if (flag == "--scenario") {
      if ((value = need_value(i)) == nullptr) return false;
      args.scenario = value;
    } else if (flag == "--replay") {
      if ((value = need_value(i)) == nullptr) return false;
      args.replay_path = value;
    } else if (flag == "--replay-out") {
      if ((value = need_value(i)) == nullptr) return false;
      args.replay_out = value;
    } else if (flag == "--mutation") {
      if ((value = need_value(i)) == nullptr) return false;
      args.mutation = value;
    } else if (flag == "--coordinator") {
      if ((value = need_value(i)) == nullptr) return false;
      args.coordinator = value;
    } else if (flag == "--policy") {
      if ((value = need_value(i)) == nullptr) return false;
      args.policy = value;
    } else if (flag == "--bound") {
      if (!number(kIntMax, &args.bound)) return false;
    } else if (flag == "--threads") {
      if (!number(kIntMax, &args.threads)) return false;
    } else if (flag == "--pages") {
      if (!number(kIntMax, &args.pages)) return false;
    } else if (flag == "--frames") {
      if (!number(kIntMax, &args.frames)) return false;
    } else if (flag == "--ops") {
      if (!number(kIntMax, &args.ops)) return false;
    } else if (flag == "--queue") {
      if (!number(kU64Max, &args.queue)) return false;
    } else if (flag == "--threshold") {
      if (!number(kU64Max, &args.threshold)) return false;
    } else if (flag == "--budget") {
      if (!number(kU64Max, &args.budget)) return false;
    } else if (flag == "--max-execs") {
      if (!number(kU64Max, &args.max_execs)) return false;
    } else if (flag == "--time-limit-ms") {
      if (!number(kU64Max, &args.time_limit_ms)) return false;
    } else {
      std::cerr << "bpw_modelcheck: unknown flag '" << flag << "'\n";
      return false;
    }
  }
  return true;
}

}  // namespace

#if BPW_SCHEDULE_POINTS

namespace {

using bpw::mc::CooperativeScheduler;
using bpw::mc::ExploreOptions;
using bpw::mc::ExploreResult;
using bpw::mc::Explorer;
using bpw::mc::MinimizeReplay;
using bpw::mc::MinimizeStats;
using bpw::mc::ReplayFile;
using bpw::mc::ReplayOutcome;
using bpw::mc::RunReplay;
using bpw::mc::Scenario;
using bpw::mc::ScenarioConfig;
using bpw::mc::ViolationKindName;

bool ApplyMutation(const std::string& name, ScenarioConfig& config) {
  if (name.empty()) return true;
  if (name == "skip_victim_revalidation") {
    config.mutate_skip_victim_revalidation = true;
    return true;
  }
  if (name == "skip_commit_before_victim") {
    config.mutate_skip_commit_before_victim = true;
    return true;
  }
  if (name == "commit_without_lock") {
    config.mutate_commit_without_lock = true;
    return true;
  }
  std::cerr << "bpw_modelcheck: unknown mutation '" << name << "'\n";
  return false;
}

/// RAII install of the cooperative scheduler as the global controller.
struct InstallScope {
  explicit InstallScope(CooperativeScheduler& sched) : sched_(sched) {
    sched_.Install();
  }
  ~InstallScope() { sched_.Uninstall(); }
  CooperativeScheduler& sched_;
};

int RunReplayMode(const Args& args) {
  auto replay = bpw::mc::ReadReplayFile(args.replay_path);
  if (!replay.ok()) {
    std::cerr << "bpw_modelcheck: " << replay.status().ToString() << "\n";
    return 2;
  }
  CooperativeScheduler sched;
  InstallScope scope(sched);

  ReplayFile file = std::move(replay).value();
  if (args.minimize) {
    MinimizeStats stats;
    file = MinimizeReplay(file, sched, &stats);
    std::cout << "minimize: " << stats.shrunk_from << " -> " << stats.shrunk_to
              << " choices in " << stats.attempts << " attempts\n";
    std::cout << bpw::mc::SerializeReplay(file);
    if (!args.replay_out.empty()) {
      bpw::Status status = bpw::mc::WriteReplayFile(file, args.replay_out);
      if (!status.ok()) {
        std::cerr << "bpw_modelcheck: " << status.ToString() << "\n";
        return 2;
      }
    }
  }

  const ReplayOutcome outcome = RunReplay(file, sched);
  if (outcome.result.violated) {
    std::cout << "replay reproduced: "
              << ViolationKindName(outcome.result.violation.kind) << "\n"
              << outcome.result.violation.message << "\n";
    return 1;
  }
  std::cout << "replay completed clean (" << outcome.result.decisions.size()
            << " decisions, " << outcome.fallbacks << " default choices)\n";
  return 0;
}

int RunExploreMode(const Args& args) {
  auto preset = Scenario::Preset(args.scenario);
  if (!preset.ok()) {
    std::cerr << "bpw_modelcheck: " << preset.status().ToString() << "\n";
    return 2;
  }
  ScenarioConfig config = std::move(preset).value();
  if (!args.coordinator.empty()) config.coordinator = args.coordinator;
  if (!args.policy.empty()) config.policy = args.policy;
  if (args.threads > 0) config.threads = args.threads;
  if (args.pages > 0) config.pages = args.pages;
  if (args.frames > 0) config.frames = args.frames;
  if (args.ops > 0) config.ops_per_thread = args.ops;
  if (args.queue > 0) config.queue_size = args.queue;
  if (args.threshold > 0) config.batch_threshold = args.threshold;
  if (args.budget > 0) config.max_decisions = args.budget;
  if (!ApplyMutation(args.mutation, config)) return 2;

  ExploreOptions options;
  options.preemption_bound = args.bound;
  options.max_executions = args.max_execs;
  options.time_limit_ms = args.time_limit_ms;
  options.use_sleep_sets = !args.no_dpor;
  options.use_state_dedup = !args.no_state_dedup;

  CooperativeScheduler sched;
  InstallScope scope(sched);
  Explorer explorer(Scenario(config), options);
  const ExploreResult result = explorer.Run(sched);

  std::cout << "scenario " << config.name << " (" << config.coordinator << "/"
            << config.policy << ", " << config.threads << " threads, "
            << config.pages << " pages, " << config.frames
            << " frames), bound " << args.bound << "\n";
  std::cout << "explored " << result.stats.executions << " executions, "
            << result.stats.decision_points << " decision points, max depth "
            << result.stats.max_depth << "\n";
  std::cout << "pruned: " << result.stats.sleep_set_pruned << " sleep-set, "
            << result.stats.state_dedup_pruned << " state-dedup, "
            << result.stats.budget_skipped << " bound-limited branches\n";
  std::cout << "certified " << result.stats.races_checked
            << " guarded accesses race-free\n";

  if (!result.found_violation) {
    std::cout << (result.stats.complete
                      ? "bounded space exhausted: no violations\n"
                      : "no violations (search capped before exhaustion)\n");
    return 0;
  }

  std::cout << "VIOLATION (" << ViolationKindName(result.violation.kind)
            << "): " << result.violation.message << "\n";
  std::cout << "trace: " << result.violating_choices.size() << " decisions\n";

  if (!args.replay_out.empty()) {
    ReplayFile file;
    file.config = config;
    file.violation_kind = ViolationKindName(result.violation.kind);
    file.choices = result.violating_choices;
    MinimizeStats stats;
    file = MinimizeReplay(file, sched, &stats);
    bpw::Status status = bpw::mc::WriteReplayFile(file, args.replay_out);
    if (!status.ok()) {
      std::cerr << "bpw_modelcheck: " << status.ToString() << "\n";
      return 2;
    }
    std::cout << "replay written to " << args.replay_out << " (minimized "
              << stats.shrunk_from << " -> " << stats.shrunk_to
              << " choices)\n";
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    return 2;
  }
  if (args.list) {
    for (const std::string& name : Scenario::PresetNames()) {
      auto config = Scenario::Preset(name);
      std::cout << name << ": " << config.value().coordinator << "/"
                << config.value().policy << ", " << config.value().threads
                << " threads\n";
    }
    return 0;
  }
  if (!args.replay_path.empty()) return RunReplayMode(args);
  if (args.scenario.empty()) {
    PrintUsage();
    return 2;
  }
  return RunExploreMode(args);
}

#else  // !BPW_SCHEDULE_POINTS

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) return 2;
  std::cout << "bpw_modelcheck: this build has schedule points compiled out "
               "(-DBPW_SCHEDULE_POINTS=0); systematic exploration needs "
               "them. Reconfigure with schedule points on.\n";
  return 0;
}

#endif  // BPW_SCHEDULE_POINTS
