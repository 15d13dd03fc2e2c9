#include "bench_common.h"

#include <cstring>

#include "util/clock.h"
#include "util/flag_parse.h"

namespace bpw {
namespace bench {

namespace {

uint64_t g_cell_ms = 300;
uint32_t g_max_threads = 16;

/// The environment knob `name`, or nullptr when it is unset or empty.
const char* EnvKnob(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : nullptr;
}

/// `text` as an integer in [min, max]; otherwise exits 2 naming `knob`.
uint64_t ParseKnob(const char* knob, const char* text, uint64_t min,
                   uint64_t max) {
  auto parsed = ParseUintFlag(knob, text, max);
  if (parsed.ok() && *parsed < min) {
    parsed = Status::InvalidArgument(std::string(knob) + ": must be at least " +
                                     std::to_string(min) + ", got '" + text +
                                     "'");
  }
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    std::exit(2);
  }
  return *parsed;
}

}  // namespace

uint64_t CellMillis() { return g_cell_ms; }

uint32_t MaxThreads() { return g_max_threads; }

int BenchMain(int argc, char** argv, const BenchInfo& info,
              int (*body)()) {
  // Each knob's text and the name to blame for it; a flag overrides the
  // environment variable.
  bool quick = false;
  const char* quick_env = EnvKnob("BPW_QUICK");
  const char* ms = EnvKnob("BPW_BENCH_MS");
  const char* ms_knob = "BPW_BENCH_MS";
  const char* threads = EnvKnob("BPW_MAX_THREADS");
  const char* threads_knob = "BPW_MAX_THREADS";

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--describe") == 0) {
      // Machine-readable one-liner for orchestration/tooling.
      std::printf("%s\t%s\n", info.id, info.title);
      return 0;
    }
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
      continue;
    }
    if (std::strcmp(arg, "--ms") == 0) {
      ms = next("--ms");
      ms_knob = "--ms";
      continue;
    }
    if (std::strcmp(arg, "--max-threads") == 0) {
      threads = next("--max-threads");
      threads_knob = "--max-threads";
      continue;
    }
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::printf(
          "%s — %s\n\n"
          "  --quick           short cells, thread axis capped at 8\n"
          "  --ms N            per-cell measurement window in ms (N >= 1)\n"
          "  --max-threads N   cap on the thread-count axis (1..%u)\n"
          "  --describe        print 'id<TAB>title' and exit\n\n"
          "Environment knobs BPW_QUICK (0 or 1) / BPW_BENCH_MS /\n"
          "BPW_MAX_THREADS are equivalent; flags win.\n",
          info.id, info.title, kMaxThreadCap);
      return 0;
    }
    std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg);
    return 2;
  }

  if (!quick && quick_env != nullptr) {
    quick = ParseKnob("BPW_QUICK", quick_env, 0, 1) == 1;
  }
  g_cell_ms = ms != nullptr ? ParseKnob(ms_knob, ms, 1, UINT64_MAX)
                            : (quick ? 120 : 300);
  g_max_threads =
      threads != nullptr
          ? static_cast<uint32_t>(ParseKnob(threads_knob, threads, 1,
                                            kMaxThreadCap))
          : (quick ? 8 : 16);

  PrintHeader(info.title, info.description);
  const uint64_t start = NowNanos();
  const int rc = body();
  std::printf("[%s] done in %.1f s\n", info.id,
              static_cast<double>(NowNanos() - start) / 1e9);
  return rc;
}

}  // namespace bench
}  // namespace bpw
