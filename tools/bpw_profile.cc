// bpw_profile: re-render saved contention reports.
//
// Reads the JSON written by `bpw_run --contention-report=FILE` (or a full
// `bpw_run --json` document — the report is found under "contention") and
// prints it as folded flamegraph stacks or as the human table, without
// re-running the experiment.
//
// Examples:
//   bpw_run --system=pgBatPre --threads=16 --contention-report=prof.json
//   bpw_profile --fold prof.json | flamegraph.pl > contention.svg
//   bpw_profile --fold prof.json | inferno-flamegraph > contention.svg
//   bpw_profile --table prof.json
//
// Folded output is `stack_frame;...;frame weight` per line, weights in
// nanoseconds: phases contribute their exclusive time under their nesting
// path, lock sites contribute `<site>;wait` and `<site>;hold` leaves.
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/profile_export.h"
#include "util/status.h"

namespace {

using namespace bpw;

void Usage() {
  std::printf(
      "bpw_profile — render a saved contention report\n\n"
      "  bpw_profile [--fold|--table|--json] [--out=FILE] REPORT.json\n"
      "  bpw_profile --reconcile --costs=COSTS.json [--out=FILE] "
      "REPORT.json\n\n"
      "  --fold        folded flamegraph stacks (default); pipe into\n"
      "                flamegraph.pl / inferno / speedscope\n"
      "  --table       aligned per-site table\n"
      "  --json        normalized report JSON (round-tripped)\n"
      "  --reconcile   static-vs-measured hold-time table: joins the\n"
      "                static hold costs from `bpw_check --costs` with\n"
      "                the report's measured hold distributions, ranks\n"
      "                both, and flags sites whose ranks diverge\n"
      "  --costs=FILE  the bpw_check --costs JSON (--reconcile only)\n"
      "  --out=FILE    write to FILE instead of stdout\n\n"
      "REPORT.json is the output of bpw_run --contention-report=FILE or a\n"
      "full bpw_run --json document (\"-\" reads stdin).\n");
}

bool ReadAll(const std::string& path, std::string* out) {
  std::FILE* f = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  if (f != stdin) std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kFold, kTable, kJson, kReconcile };
  Mode mode = Mode::kFold;
  std::string out_path = "-";
  std::string in_path;
  std::string costs_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--fold") == 0) {
      mode = Mode::kFold;
    } else if (std::strcmp(arg, "--table") == 0) {
      mode = Mode::kTable;
    } else if (std::strcmp(arg, "--json") == 0) {
      mode = Mode::kJson;
    } else if (std::strcmp(arg, "--reconcile") == 0) {
      mode = Mode::kReconcile;
    } else if (std::strncmp(arg, "--costs=", 8) == 0) {
      costs_path = arg + 8;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      Usage();
      return 0;
    } else if (arg[0] == '-' && std::strcmp(arg, "-") != 0) {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg);
      return 2;
    } else if (in_path.empty()) {
      in_path = arg;
    } else {
      std::fprintf(stderr, "more than one input file (try --help)\n");
      return 2;
    }
  }
  if (in_path.empty()) {
    Usage();
    return 2;
  }

  std::string text;
  if (!ReadAll(in_path, &text)) {
    std::fprintf(stderr, "failed to read %s\n", in_path.c_str());
    return 1;
  }
  StatusOr<obs::ProfSnapshot> snapshot = obs::ProfSnapshotFromJson(text);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s: %s\n", in_path.c_str(),
                 snapshot.status().ToString().c_str());
    return 1;
  }

  std::string rendered;
  switch (mode) {
    case Mode::kFold:
      rendered = obs::ProfSnapshotToFolded(snapshot.value());
      break;
    case Mode::kTable:
      rendered = obs::ProfSnapshotToTable(snapshot.value());
      break;
    case Mode::kJson:
      rendered = obs::ProfSnapshotToJson(snapshot.value()) + "\n";
      break;
    case Mode::kReconcile: {
      if (costs_path.empty()) {
        std::fprintf(stderr,
                     "--reconcile needs --costs=FILE (the JSON written by "
                     "bpw_check --costs)\n");
        return 2;
      }
      std::string costs;
      if (!ReadAll(costs_path, &costs)) {
        std::fprintf(stderr, "failed to read %s\n", costs_path.c_str());
        return 1;
      }
      StatusOr<std::string> table =
          obs::ReconcileHoldCosts(costs, snapshot.value());
      if (!table.ok()) {
        std::fprintf(stderr, "%s: %s\n", costs_path.c_str(),
                     table.status().ToString().c_str());
        return 1;
      }
      rendered = std::move(table).value();
      break;
    }
  }
  if (!obs::WriteTextFile(out_path, rendered)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
