// bpw_check: the repo's static checker, one entry point for every rule.
//
//   bpw_check [--dot FILE] [--costs FILE] [--sarif FILE] <file-or-dir>...
//   bpw_check --check-expectations DIR
//
// Tree run. Directories are walked for *.h / *.cc / *.cpp and every file is
// lexed once. The line rules (analysis/line_rules.h) run on all of them.
// The files under a src/ directory are also parsed into one model, and the
// whole-tree modules run on it: the lock-order graph (lock_graph.h), the
// atomics discipline (atomics_check.h) and the hold-region prover
// (hold_cost.h). The model holds src/ only on purpose: with the tests in
// it, their policy doubles would become virtual-dispatch targets of the
// library's coordinators. A finding on a line that a bpw-lint-allow comment
// covers is dropped; an allow that covers no finding, or names no rule, is
// reported as stale. Files with bpw-check-expect markers are seeded
// violations and are left to the corpus run.
//
//   --dot FILE    write the lock-acquisition order graph (Graphviz; dashed
//                 edges are TryLock-bounded and whitelisted in the
//                 acyclicity proof)
//   --costs FILE  write per-hold-site static cost ranks as JSON (the input
//                 to `bpw_profile --reconcile`)
//   --sarif FILE  write the findings as SARIF 2.1.0
//
// Corpus run (--check-expectations DIR). Every file under DIR is checked on
// its own, as library code, with every rule. Its findings must match its
// bpw-check-expect(RULE) comments exactly, in both directions; a marker
// covers its own line and the next.
//
// Exit status: 0 clean, 1 findings, stale allows or corpus mismatches,
// 2 usage or IO errors. DESIGN.md "Static analysis" has the rule list.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/atomics_check.h"
#include "analysis/call_graph.h"
#include "analysis/effects.h"
#include "analysis/finding.h"
#include "analysis/hold_cost.h"
#include "analysis/line_rules.h"
#include "analysis/lock_graph.h"
#include "analysis/sarif.h"
#include "analysis/scope_graph.h"

namespace {

using namespace bpw::analysis;

constexpr char kUsage[] =
    "usage: bpw_check [--dot FILE] [--costs FILE] [--sarif FILE] "
    "<file-or-dir>...\n"
    "       bpw_check --check-expectations DIR\n";

struct SourceFile {
  std::string path;
  bool in_src = false;  ///< part of the lock / atomics / hold model
};

std::vector<std::string> RuleIds() {
  std::vector<std::string> ids(std::begin(kLineRules), std::end(kLineRules));
  ids.insert(ids.end(), std::begin(kAtomicsRules), std::end(kAtomicsRules));
  ids.push_back("lock-order-cycle");
  ids.insert(ids.end(), std::begin(kHoldRules), std::end(kHoldRules));
  return ids;
}

bool ReadSource(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bpw_check: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "bpw_check: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

bool IsSourceFilePath(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

/// Expands `paths` into a sorted source list. A file walked from a
/// directory argument joins the model when a src/ directory sits at or
/// below that argument, so the checkout's own location never counts.
bool CollectSourceFiles(const std::vector<std::string>& paths,
                        std::vector<SourceFile>* files) {
  namespace fs = std::filesystem;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      fs::path root = fs::path(p).lexically_normal();
      if (root.filename().empty()) root = root.parent_path();
      const bool root_is_src = root.filename() == "src";
      for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
        if (!entry.is_regular_file() || !IsSourceFilePath(entry.path())) {
          continue;
        }
        const std::string rel =
            entry.path().lexically_relative(p).generic_string();
        files->push_back({entry.path().string(),
                          root_is_src || PathInDir(rel, "src/")});
      }
    } else if (fs::is_regular_file(p, ec)) {
      files->push_back({p, PathInDir(p, "src/")});
    } else {
      std::fprintf(stderr, "bpw_check: cannot read %s\n", p.c_str());
      return false;
    }
  }
  std::sort(files->begin(), files->end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return true;
}

/// Runs the whole-tree modules over `tree`; `graph` and `holds` keep the
/// artifacts.
std::vector<Finding> CheckModel(const TreeModel& tree, bool all_files_lib,
                                LockGraph* graph, HoldReport* holds) {
  *graph = BuildLockGraph(tree);
  std::vector<Finding> findings = graph->findings;
  const std::vector<Finding> atomics = CheckAtomics(tree, all_files_lib);
  findings.insert(findings.end(), atomics.begin(), atomics.end());
  const CallGraph cg = BuildCallGraph(tree);
  *holds = CheckHolds(tree, cg, ComputeEffects(tree, cg), all_files_lib);
  findings.insert(findings.end(), holds->findings.begin(),
                  holds->findings.end());
  return findings;
}

void PrintFinding(const Finding& f) {
  std::fprintf(stderr, "%s\n", FormatFinding(f).c_str());
}

int CheckCorpus(const std::string& dir) {
  std::vector<SourceFile> files;
  if (!CollectSourceFiles({dir}, &files)) return 2;
  if (files.empty()) {
    std::fprintf(stderr, "bpw_check: no source files in %s\n", dir.c_str());
    return 2;
  }
  const std::vector<std::string> rules = RuleIds();
  int failures = 0;
  for (const SourceFile& file : files) {
    std::string source;
    if (!ReadSource(file.path, &source)) return 2;
    TreeModel tree;
    tree.AddFile(BuildFileModel(file.path, source));
    const FileModel& fm = tree.files[0];
    std::vector<Finding> findings =
        CheckLineRules(fm.path, fm.lex, /*all_files_lib=*/true);
    LockGraph graph;
    HoldReport holds;
    const std::vector<Finding> model =
        CheckModel(tree, /*all_files_lib=*/true, &graph, &holds);
    findings.insert(findings.end(), model.begin(), model.end());
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const Finding& f) {
                                    return fm.lex.Allowed(f.line - 1, f.rule);
                                  }),
                   findings.end());

    std::vector<bool> matched(findings.size(), false);
    for (const ExpectSite& exp : fm.lex.expect_sites) {
      const int line = exp.line + 1;
      if (std::find(rules.begin(), rules.end(), exp.rule) == rules.end()) {
        std::fprintf(stderr, "%s:%d: marker names no rule [%s]\n",
                     fm.path.c_str(), line, exp.rule.c_str());
        ++failures;
        continue;
      }
      bool hit = false;
      for (size_t i = 0; i < findings.size(); ++i) {
        if (findings[i].rule == exp.rule &&
            (findings[i].line == line || findings[i].line == line + 1)) {
          matched[i] = true;
          hit = true;
        }
      }
      if (!hit) {
        std::fprintf(stderr,
                     "%s:%d: expected [%s] to fire here but it did not\n",
                     fm.path.c_str(), line, exp.rule.c_str());
        ++failures;
      }
    }
    for (size_t i = 0; i < findings.size(); ++i) {
      if (matched[i]) continue;
      PrintFinding(findings[i]);
      std::fprintf(stderr, "%s:%d: ^ finding has no matching marker\n",
                   findings[i].file.c_str(), findings[i].line);
      ++failures;
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "bpw_check: %d corpus expectation failure(s)\n",
                 failures);
    return 1;
  }
  std::printf("bpw_check: corpus expectations all matched (%zu files)\n",
              files.size());
  return 0;
}

struct Outputs {
  std::string dot;
  std::string costs;
  std::string sarif;
};

int CheckTree(const std::vector<SourceFile>& files, const Outputs& out) {
  TreeModel tree;
  std::vector<FileModel> others;  // lexed only: line rules and allow audit
  size_t corpus_files = 0;
  for (const SourceFile& file : files) {
    std::string source;
    if (!ReadSource(file.path, &source)) return 2;
    FileModel fm;
    if (file.in_src) {
      fm = BuildFileModel(file.path, source);
    } else {
      fm.path = file.path;
      fm.lex = Lex(source);
    }
    if (!fm.lex.expect_sites.empty()) {
      ++corpus_files;
      continue;
    }
    (file.in_src ? tree.files : others).push_back(std::move(fm));
  }
  tree.Reindex();
  std::vector<const FileModel*> all;
  for (const FileModel& fm : tree.files) all.push_back(&fm);
  for (const FileModel& fm : others) all.push_back(&fm);

  // Every module reports unsuppressed; the allows are applied once here,
  // so the same list also tells which allows still cover a finding.
  std::vector<Finding> unsuppressed;
  for (const FileModel* fm : all) {
    const std::vector<Finding> line = CheckLineRules(fm->path, fm->lex);
    unsuppressed.insert(unsuppressed.end(), line.begin(), line.end());
  }
  LockGraph graph;
  HoldReport holds;
  const std::vector<Finding> model =
      CheckModel(tree, /*all_files_lib=*/false, &graph, &holds);
  unsuppressed.insert(unsuppressed.end(), model.begin(), model.end());

  std::map<std::string, const LexedSource*> lex_of;
  for (const FileModel* fm : all) lex_of[fm->path] = &fm->lex;
  std::vector<Finding> findings;
  std::set<std::string> fired_at;  // "file:line:rule"
  std::set<std::string> fired_in;  // "file:rule", for file-scope allows
  for (const Finding& f : unsuppressed) {
    fired_at.insert(f.file + ":" + std::to_string(f.line) + ":" + f.rule);
    fired_in.insert(f.file + ":" + f.rule);
    if (!lex_of.at(f.file)->Allowed(f.line - 1, f.rule)) findings.push_back(f);
  }

  const std::vector<std::string> rules = RuleIds();
  int stale = 0;
  for (const FileModel* fm : all) {
    for (const AllowSite& site : fm->lex.allow_sites) {
      std::string why;
      if (std::find(rules.begin(), rules.end(), site.rule) == rules.end()) {
        why = "no such rule";
      } else if (site.file_scope) {
        if (fired_in.count(fm->path + ":" + site.rule) == 0) {
          why = "the rule no longer fires in this file";
        }
      } else {
        // A line allow covers its own line and the next.
        const std::string at = fm->path + ":";
        if (fired_at.count(at + std::to_string(site.line + 1) + ":" +
                           site.rule) == 0 &&
            fired_at.count(at + std::to_string(site.line + 2) + ":" +
                           site.rule) == 0) {
          why = "the rule no longer fires at this site";
        }
      }
      if (why.empty()) continue;
      std::fprintf(stderr, "%s:%d: stale allow (%s): %s\n", fm->path.c_str(),
                   site.line + 1, site.rule.c_str(), why.c_str());
      ++stale;
    }
  }

  if ((!out.dot.empty() && !WriteFile(out.dot, LockGraphToDot(graph))) ||
      (!out.costs.empty() && !WriteFile(out.costs, HoldCostsToJson(holds))) ||
      (!out.sarif.empty() &&
       !WriteFile(out.sarif, FindingsToSarif("bpw_check", rules, findings)))) {
    return 2;
  }
  for (const Finding& f : findings) PrintFinding(f);
  if (!findings.empty() || stale != 0) {
    std::fprintf(stderr,
                 "bpw_check: %zu finding(s), %d stale allow(s) in %zu "
                 "file(s)\n",
                 findings.size(), stale, all.size());
    return 1;
  }
  std::printf(
      "bpw_check: clean (%zu files, %zu seeded corpus files left to "
      "--check-expectations; model of %zu src files: lock graph of %zu "
      "locks and %zu edges, acyclic; %zu hold sites proven transitively "
      "effect-free and loop-bounded; no stale allows)\n",
      all.size(), corpus_files, tree.files.size(), graph.locks.size(),
      graph.edges.size(), holds.sites.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Outputs out;
  std::string corpus_dir;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string* value = nullptr;
    if (arg == "--dot") {
      value = &out.dot;
    } else if (arg == "--costs") {
      value = &out.costs;
    } else if (arg == "--sarif") {
      value = &out.sarif;
    } else if (arg == "--check-expectations") {
      value = &corpus_dir;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bpw_check: unknown option %s\n%s", arg.c_str(),
                   kUsage);
      return 2;
    } else {
      paths.push_back(arg);
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bpw_check: %s needs a value\n%s", arg.c_str(),
                   kUsage);
      return 2;
    }
    *value = argv[++i];
  }
  if (!corpus_dir.empty()) {
    if (!paths.empty() || !out.dot.empty() || !out.costs.empty() ||
        !out.sarif.empty()) {
      std::fprintf(stderr,
                   "bpw_check: --check-expectations takes no other "
                   "argument\n%s",
                   kUsage);
      return 2;
    }
    return CheckCorpus(corpus_dir);
  }
  if (paths.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  std::vector<SourceFile> files;
  if (!CollectSourceFiles(paths, &files)) return 2;
  if (files.empty()) {
    std::fprintf(stderr, "bpw_check: no source files found\n");
    return 2;
  }
  return CheckTree(files, out);
}
