// Engine tests for the shared static-analysis library (src/analysis/):
// the lexer, the scope graph, the lock-order graph, and the atomics
// discipline checker. These pin the *supported shapes* — the scope-graph
// header promises the model degrades by omission, and these tests are the
// contract for what must not be omitted.
//
// The seeded-violation corpus under tests/static/ covers the end-to-end
// CLI behaviour; here we drive the library directly on small sources.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/atomics_check.h"
#include "analysis/call_graph.h"
#include "analysis/effects.h"
#include "analysis/hold_cost.h"
#include "analysis/lexer.h"
#include "analysis/lock_graph.h"
#include "analysis/scope_graph.h"

namespace bpw {
namespace analysis {
namespace {

// ---------------------------------------------------------------- helpers

TreeModel BuildTree(const std::vector<std::pair<std::string, std::string>>&
                        path_and_source) {
  TreeModel tree;
  for (const auto& ps : path_and_source) {
    tree.AddFile(BuildFileModel(ps.first, ps.second));
  }
  return tree;
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const auto& f : findings) rules.push_back(f.rule);
  std::sort(rules.begin(), rules.end());
  return rules;
}

std::string Dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + " [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

const TypeDecl* FindType(const TreeModel& tree, const std::string& name) {
  auto it = tree.types_by_name.find(name);
  return it == tree.types_by_name.end() ? nullptr : it->second;
}

const FieldDecl* FindField(const TypeDecl* type, const std::string& name) {
  if (type == nullptr) return nullptr;
  for (const auto& f : type->fields) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const FunctionDecl* FindFunction(const FileModel& file,
                                 const std::string& qualified) {
  for (const auto& fn : file.functions) {
    if (fn.qualified == qualified) return &fn;
  }
  return nullptr;
}

// ------------------------------------------------------------------ lexer

TEST(LexerTest, RawStringContentsDoNotLeakIntoCleanedLines) {
  // A raw string holding comment markers, quotes, and braces must lex as
  // one token and leave the cleaned line free of its contents — otherwise
  // every checker downstream would "see" phantom code.
  LexedSource lex = Lex(
      "const char* q = R\"sql(SELECT \"a\" // not a comment { )\" )sql\";\n"
      "int after = 1;\n");
  ASSERT_GE(lex.cleaned_lines.size(), 2u);
  EXPECT_EQ(lex.cleaned_lines[0].find("SELECT"), std::string::npos);
  EXPECT_EQ(lex.cleaned_lines[0].find("//"), std::string::npos);
  EXPECT_EQ(lex.cleaned_lines[1].find("after"), 4u);
  // Exactly one string token, carrying the raw contents.
  int strings = 0;
  for (const auto& t : lex.tokens) {
    if (t.kind == TokKind::kString) {
      ++strings;
      EXPECT_NE(t.text.find("SELECT"), std::string::npos);
      EXPECT_EQ(t.line, 1);
    }
  }
  EXPECT_EQ(strings, 1);
}

TEST(LexerTest, LineContinuationMacroKeepsPhysicalLineNumbers) {
  // A backslash-continued #define spans physical lines; the directive
  // state must swallow the continuation so line 3 is real code again and
  // tokens there report line 3.
  LexedSource lex = Lex(
      "#define WIDE(x) \\\n"
      "  do { (x) } while (0)\n"
      "int live = 1;\n");
  ASSERT_GE(lex.cleaned_lines.size(), 3u);
  EXPECT_EQ(lex.cleaned_lines[1].find("while"), std::string::npos)
      << "continuation body leaked into cleaned lines";
  bool saw_live = false;
  for (const auto& t : lex.tokens) {
    if (t.kind == TokKind::kIdent && t.text == "live") {
      saw_live = true;
      EXPECT_EQ(t.line, 3);
    }
  }
  EXPECT_TRUE(saw_live);
}

TEST(LexerTest, DigitSeparatorsLexAsOneNumber) {
  LexedSource lex = Lex("long n = 1'000'000;\n");
  bool saw = false;
  for (const auto& t : lex.tokens) {
    if (t.kind == TokKind::kNumber) {
      saw = true;
      EXPECT_EQ(t.text, "1'000'000");
    }
  }
  EXPECT_TRUE(saw);
}

TEST(LexerTest, UdlSuffixStaysGluedToItsLiteral) {
  LexedSource lex = Lex("auto d = 10ms; auto s = \"abc\"sv;\n");
  for (const auto& t : lex.tokens) {
    // Neither suffix may surface as a spurious identifier: `ms` glued to
    // the number is one pp-number, `sv` after the quote belongs to the
    // string (identifiers named ms/sv elsewhere would be fine, but these
    // are literal suffixes).
    EXPECT_FALSE(t.kind == TokKind::kIdent && (t.text == "ms" || t.text == "sv"))
        << t.text;
    if (t.kind == TokKind::kNumber && t.text.rfind("10", 0) == 0) {
      EXPECT_EQ(t.text, "10ms");
    }
  }
}

TEST(LexerTest, SpliceInsideAnIdentifierJoinsTheHalves) {
  LexedSource lex = Lex("int contention_co\\\nunter = 0;\n");
  bool saw = false;
  for (const auto& t : lex.tokens) {
    if (t.kind == TokKind::kIdent && t.text == "contention_counter") saw = true;
    EXPECT_NE(t.text, "contention_co");
    EXPECT_NE(t.text, "unter");
  }
  EXPECT_TRUE(saw);
}

TEST(LexerTest, CharLiteralWithEscapedQuoteDoesNotDerailState) {
  LexedSource lex = Lex("char c = '\\''; int tail = 2;\n");
  bool saw_tail = false;
  for (const auto& t : lex.tokens) {
    if (t.kind == TokKind::kIdent && t.text == "tail") saw_tail = true;
  }
  EXPECT_TRUE(saw_tail) << "lexer stayed inside the char literal";
}

TEST(LexerTest, AllowCommentsAttachToLineAndFile) {
  LexedSource lex = Lex(
      "// bpw-lint-allow-file(raw-mutex)\n"
      "int a = 0;\n"
      "int b = 1;  // bpw-lint-allow(trylock-unchecked)\n"
      "int c = 2;\n"
      "int d = 3;\n");
  EXPECT_TRUE(lex.Allowed(4, "raw-mutex")) << "file allow covers all lines";
  // Line allow covers its own line and the next (0-based indices).
  EXPECT_TRUE(lex.Allowed(2, "trylock-unchecked"));
  EXPECT_TRUE(lex.Allowed(3, "trylock-unchecked"));
  EXPECT_FALSE(lex.Allowed(4, "trylock-unchecked"));
  EXPECT_FALSE(lex.Allowed(2, "raw-spinlock"));
  // Both allows are recorded as audit sites.
  ASSERT_EQ(lex.allow_sites.size(), 2u);
  EXPECT_TRUE(lex.allow_sites[0].file_scope);
  EXPECT_EQ(lex.allow_sites[0].rule, "raw-mutex");
  EXPECT_FALSE(lex.allow_sites[1].file_scope);
  EXPECT_EQ(lex.allow_sites[1].rule, "trylock-unchecked");
}

TEST(LexerTest, ExpectMarkersComeFromCommentsOnly) {
  // A corpus marker in a comment is an expectation; the same text in a
  // string literal (a test's embedded snippet) is not.
  LexedSource lex = Lex(
      "// bpw-check-expect(hold-alloc) bpw-check-expect(hold-log)\n"
      "Grow();\n"
      "const char* s = \"// bpw-check-expect(raw-mutex)\";\n");
  ASSERT_EQ(lex.expect_sites.size(), 2u);
  EXPECT_EQ(lex.expect_sites[0].line, 0);
  EXPECT_EQ(lex.expect_sites[0].rule, "hold-alloc");
  EXPECT_EQ(lex.expect_sites[1].rule, "hold-log");
  EXPECT_TRUE(lex.allow_sites.empty());
}

TEST(LexerTest, StringTokensCarryAnnotationArguments) {
  // BPW_RELAXED_OK("reason") keeps its reason on the token, where the
  // annotation args are read from.
  LexedSource lex =
      Lex("std::atomic<int> n BPW_RELAXED_OK(\"stats counter\");\n");
  bool saw = false;
  for (const auto& t : lex.tokens) {
    if (t.kind == TokKind::kString) {
      saw = true;
      EXPECT_EQ(t.text, "stats counter");
    }
  }
  EXPECT_TRUE(saw);
  // ...while the cleaned line blanks it, so greps never match literals.
  EXPECT_EQ(lex.cleaned_lines[0].find("stats"), std::string::npos);
}

// ------------------------------------------------------------ scope graph

TEST(ScopeGraphTest, FieldAnnotationsAndArrayDeclaratorNames) {
  TreeModel tree = BuildTree({{"src/x.h", R"cpp(
struct Histogram {
  static constexpr int kNumBuckets = 8;
};
struct Cell {
  std::atomic<unsigned long> hits_{0} BPW_RELAXED_OK("stats counter");
  Mutex mu_;
  unsigned long page BPW_GUARDED_BY(mu_) = 0;
  std::atomic<unsigned long> buckets[Histogram::kNumBuckets] = {};
};
)cpp"}});
  const TypeDecl* cell = FindType(tree, "Cell");
  ASSERT_NE(cell, nullptr);
  const FieldDecl* hits = FindField(cell, "hits_");
  ASSERT_NE(hits, nullptr);
  ASSERT_TRUE(hits->HasAnnotation("BPW_RELAXED_OK"));
  EXPECT_EQ(hits->FindAnnotation("BPW_RELAXED_OK")->args, "\"stats counter\"");
  const FieldDecl* page = FindField(cell, "page");
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->FindAnnotation("BPW_GUARDED_BY")->args, "mu_");
  // The array field is named by its declarator, not by the identifier
  // inside the subscript.
  EXPECT_NE(FindField(cell, "buckets"), nullptr);
  EXPECT_EQ(FindField(cell, "kNumBuckets"), nullptr)
      << "subscript contents mistaken for the field name";
}

TEST(ScopeGraphTest, LocalsPlainTemplatedAndRangeForAliases) {
  TreeModel tree = BuildTree({{"src/x.cc", R"cpp(
struct Node { bool resident; };
struct Pool {
  std::vector<Node> nodes_;
  void Sweep() {
    unsigned long page = 7;
    std::atomic<int> phase{0};
    Node* head = nullptr;
    for (auto& n : nodes_) {
      (void)n.resident;
    }
    (void)page;
    (void)head;
  }
};
)cpp"}});
  const FunctionDecl* sweep = FindFunction(tree.files[0], "Pool::Sweep");
  ASSERT_NE(sweep, nullptr);
  // Plain value local, template-typed local, pointer local.
  ASSERT_EQ(sweep->local_types.count("page"), 1u);
  ASSERT_EQ(sweep->local_types.count("phase"), 1u);
  EXPECT_EQ(sweep->local_types.at("phase"), "atomic");
  ASSERT_EQ(sweep->local_types.count("head"), 1u);
  EXPECT_EQ(sweep->local_types.at("head"), "Node");
  // Keywords never become local "types".
  EXPECT_EQ(sweep->local_types.count("resident"), 0u);
  // Range-for element aliases the container member.
  ASSERT_EQ(sweep->local_aliases.count("n"), 1u);
  EXPECT_EQ(sweep->local_aliases.at("n"), "nodes_");
}

TEST(ScopeGraphTest, ResolveMemberPrefersEnclosingAndNeverOuterToNested) {
  TreeModel tree = BuildTree({{"src/x.h", R"cpp(
struct Outer {
  struct Inner {
    unsigned long page = 0;
  };
  unsigned long count = 0;
};
struct Elsewhere {
  unsigned long page = 0;
};
)cpp"}});
  // Nested scope sees the outer field, and its own field first.
  EXPECT_NE(tree.ResolveMember("Outer::Inner", "count"), nullptr);
  const FieldDecl* inner_page = tree.ResolveMember("Outer::Inner", "page");
  ASSERT_NE(inner_page, nullptr);
  EXPECT_EQ(inner_page->owner, "Outer::Inner");
  // A bare name in an Outer method must NOT resolve to a non-static field
  // of a nested type (there is no object to read it from), and with the
  // name declared in more than one type the tree-wide fallback is
  // ambiguous, so resolution fails instead of guessing.
  EXPECT_EQ(tree.ResolveMember("Outer", "page"), nullptr);
}

TEST(ScopeGraphTest, HeaderAnnotationsJoinCcBodiesByQualifiedName) {
  TreeModel tree = BuildTree({
      {"src/x.h", R"cpp(
struct Pool {
  Mutex mu_;
  void DrainLocked() BPW_REQUIRES(mu_);
};
)cpp"},
      {"src/x.cc", R"cpp(
void Pool::DrainLocked() {}
)cpp"},
  });
  auto it = tree.function_annotations.find("Pool::DrainLocked");
  ASSERT_NE(it, tree.function_annotations.end());
  ASSERT_EQ(it->second.size(), 1u);
  EXPECT_EQ(it->second[0].name, "BPW_REQUIRES");
  EXPECT_EQ(it->second[0].args, "mu_");
  const FunctionDecl* def = FindFunction(tree.files[1], "Pool::DrainLocked");
  ASSERT_NE(def, nullptr);
  EXPECT_TRUE(def->has_body);
}

// ------------------------------------------------------------- lock graph

TEST(LockGraphTest, InconsistentOrderAcrossFunctionsIsACycle) {
  TreeModel tree = BuildTree({{"src/x.cc", R"cpp(
struct Pool {
  Mutex map_mu_;
  Mutex free_mu_;
  void A() {
    MutexGuard m(map_mu_);
    MutexGuard f(free_mu_);
  }
  void B() {
    MutexGuard f(free_mu_);
    MutexGuard m(map_mu_);
  }
};
)cpp"}});
  LockGraph graph = BuildLockGraph(tree);
  ASSERT_EQ(graph.locks.size(), 2u);
  EXPECT_EQ(Rules(graph.findings),
            std::vector<std::string>{"lock-order-cycle"})
      << Dump(graph.findings);
}

TEST(LockGraphTest, ConsistentOrderIsAcyclicAndEdgesMaterialize) {
  TreeModel tree = BuildTree({{"src/x.cc", R"cpp(
struct Pool {
  Mutex map_mu_;
  Mutex free_mu_;
  void A() {
    MutexGuard m(map_mu_);
    MutexGuard f(free_mu_);
  }
};
)cpp"}});
  LockGraph graph = BuildLockGraph(tree);
  EXPECT_TRUE(graph.findings.empty()) << Dump(graph.findings);
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.edges[0].from, "Pool::map_mu_");
  EXPECT_EQ(graph.edges[0].to, "Pool::free_mu_");
  EXPECT_FALSE(graph.edges[0].try_edge);
}

TEST(LockGraphTest, TryEdgesAreWhitelistedInTheAcyclicityProof) {
  // Neighbor probe under a held shard lock: a blocking edge would be an
  // instant cycle, a TryLock-bounded edge is sanctioned.
  TreeModel tree = BuildTree({{"src/x.cc", R"cpp(
struct Shard {
  ContentionLock lock;
};
struct Set {
  bool Probe(Shard& a, Shard& b) {
    ContentionLockGuard g(a.lock);
    if (b.lock.TryLock()) {
      b.lock.Unlock();
      return true;
    }
    return false;
  }
};
)cpp"}});
  LockGraph graph = BuildLockGraph(tree);
  EXPECT_TRUE(graph.findings.empty()) << Dump(graph.findings);
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_TRUE(graph.edges[0].try_edge);
  EXPECT_EQ(graph.edges[0].from, "Shard::lock");
  EXPECT_EQ(graph.edges[0].to, "Shard::lock");
  // The DOT export renders the bounded probe dashed.
  const std::string dot = LockGraphToDot(graph);
  EXPECT_NE(dot.find("dashed"), std::string::npos);
  EXPECT_NE(dot.find("\"Shard::lock\""), std::string::npos);
}

TEST(LockGraphTest, RequiresAnnotationSeedsTheHeldSet) {
  TreeModel tree = BuildTree({{"src/x.cc", R"cpp(
struct Pool {
  Mutex outer_mu_;
  Mutex inner_mu_;
  void TakeInnerLocked() BPW_REQUIRES(outer_mu_) {
    MutexGuard g(inner_mu_);
  }
  void Reverse() {
    MutexGuard i(inner_mu_);
    MutexGuard o(outer_mu_);
  }
};
)cpp"}});
  // TakeInnerLocked contributes outer->inner purely via its REQUIRES
  // annotation; Reverse's inner->outer completes the cycle.
  LockGraph graph = BuildLockGraph(tree);
  EXPECT_EQ(Rules(graph.findings),
            std::vector<std::string>{"lock-order-cycle"})
      << Dump(graph.findings);
}

// ---------------------------------------------------------------- atomics


TEST(AtomicsTest, RelaxedUnannotatedFiresAndAnnotationsSilenceIt) {
  TreeModel tree = BuildTree({{"src/x.cc", R"cpp(
struct Counters {
  std::atomic<unsigned long> bare_{0};
  std::atomic<unsigned long> ok_{0} BPW_RELAXED_OK("stats counter");
  void Bump() {
    bare_.fetch_add(1, std::memory_order_relaxed);
    ok_.fetch_add(1, std::memory_order_relaxed);
  }
};
)cpp"}});
  auto findings = CheckAtomics(tree, /*all_files_lib=*/true);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "relaxed-unannotated");
  EXPECT_NE(findings[0].message.find("bare_"), std::string::npos);
}

TEST(AtomicsTest, StandaloneSiteStatementCoversItsLineAndTheNext) {
  TreeModel tree = BuildTree({{"src/x.cc", R"cpp(
struct Counters {
  std::atomic<unsigned long> bare_{0};
  void Reset() {
    BPW_RELAXED_OK("all writers joined before reset");
    bare_.store(0, std::memory_order_relaxed);
  }
  void Bump() {
    bare_.fetch_add(1, std::memory_order_relaxed);
  }
};
)cpp"}});
  auto findings = CheckAtomics(tree, /*all_files_lib=*/true);
  // Reset's store is whitelisted by the site statement; Bump still fires.
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "relaxed-unannotated");
}

TEST(AtomicsTest, LocalAtomicsAreOutOfScope) {
  TreeModel tree = BuildTree({{"src/x.cc", R"cpp(
struct Driver {
  void Run() {
    std::atomic<int> phase{0};
    phase.store(1, std::memory_order_relaxed);
  }
};
)cpp"}});
  auto findings = CheckAtomics(tree, /*all_files_lib=*/true);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(AtomicsTest, McAccessRequiresAnAnnotatedObject) {
  TreeModel tree = BuildTree({{"src/x.cc", R"cpp(
struct Target {
  Mutex mu_;
  unsigned long bare_word = 0;
  unsigned long guarded_word BPW_GUARDED_BY(mu_) = 0;
  void Touch() {
    BPW_MC_ACCESS_WRITE("t.bare", &bare_word);
    BPW_MC_ACCESS_WRITE("t.guarded", &guarded_word);
  }
};
)cpp"}});
  auto findings = CheckAtomics(tree, /*all_files_lib=*/true);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "mc-access-unannotated");
  EXPECT_NE(findings[0].message.find("bare_word"), std::string::npos);
}

TEST(AtomicsTest, RangeForElementInheritsContainerFieldAnnotations) {
  // `n.ref` through a range-for over nodes_ (std::vector<Node>) must
  // resolve to Node::ref and honour its BPW_RELAXED_OK.
  TreeModel tree = BuildTree({{"src/x.cc", R"cpp(
struct Policy {
  struct Node {
    std::atomic<bool> ref{false} BPW_RELAXED_OK("reference bit");
  };
  std::vector<Node> nodes_;
  void SweepAll() {
    for (auto& n : nodes_) {
      n.ref.store(false, std::memory_order_relaxed);
    }
  }
};
)cpp"}});
  auto findings = CheckAtomics(tree, /*all_files_lib=*/true);
  EXPECT_TRUE(findings.empty()) << Dump(findings);
}

TEST(AtomicsTest, AllowCommentsSuppressUnlessIgnored) {
  TreeModel tree = BuildTree({{"src/x.cc", R"cpp(
struct Counters {
  std::atomic<unsigned long> bare_{0};
  void Bump() {
    // bpw-lint-allow(relaxed-unannotated)
    bare_.fetch_add(1, std::memory_order_relaxed);
  }
};
)cpp"}});
  // The checker reports unsuppressed (the stale-allow audit needs the
  // whole set); the allow on the file covers the finding.
  auto unsuppressed = CheckAtomics(tree, /*all_files_lib=*/true);
  ASSERT_EQ(unsuppressed.size(), 1u) << Dump(unsuppressed);
  EXPECT_EQ(unsuppressed[0].rule, "relaxed-unannotated");
  EXPECT_TRUE(tree.files[0].lex.Allowed(unsuppressed[0].line - 1,
                                        unsuppressed[0].rule));
}

TEST(AtomicsTest, DefaultScopeSkipsTestsAndSyncButCoversSrc) {
  const std::string bad = R"cpp(
struct Counters {
  std::atomic<unsigned long> bare_{0};
  void Bump() {
    bare_.fetch_add(1, std::memory_order_relaxed);
  }
};
)cpp";
  TreeModel tree = BuildTree({{"src/core/x.cc", bad},
                              {"src/sync/y.cc", bad},
                              {"tests/z.cc", bad}});
  auto findings = CheckAtomics(tree);  // default scope
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].file, "src/core/x.cc");
}

// ------------------------------------------------- call graph + effects

/// Effects of `qualified` in a one-file tree, via the full pipeline.
unsigned EffectsOf(const TreeModel& tree, const CallGraph& cg,
                   const EffectMap& effects, const std::string& qualified) {
  auto it = cg.index.find(qualified);
  if (it == cg.index.end()) return 0xdead;
  return effects.BitsOf(it->second);
}

TEST(CallGraphTest, VirtualCallsFanOutToEveryOverride) {
  const std::string src = R"cpp(
struct Policy {
  virtual void OnHit(int frame);
};
struct LruPolicy : Policy {
  void OnHit(int frame) override { touched_ = frame; }
};
struct ArcPolicy : Policy {
  void OnHit(int frame) override { ghosts_.push_back(frame); }
};
struct Driver {
  Policy* policy_;
  void Replay() { policy_->OnHit(0); }
};
)cpp";
  TreeModel tree = BuildTree({{"src/core/a.cc", src}});
  const CallGraph cg = BuildCallGraph(tree);
  const EffectMap effects = ComputeEffects(tree, cg);
  // The base-typed call must reach ArcPolicy's allocating override: the
  // caller inherits alloc even though LruPolicy's override is clean.
  EXPECT_EQ(EffectsOf(tree, cg, effects, "Driver::Replay") & kEffAlloc,
            kEffAlloc);
}

TEST(CallGraphTest, RecursionCycleMembersUnionTheirEffects) {
  const std::string src = R"cpp(
struct Walker {
  void Descend(int n) { if (n > 0) Record(n); }
  void Record(int n) {
    trail_.push_back(n);
    Descend(n - 1);
  }
  void Entry() { Descend(8); }
};
)cpp";
  TreeModel tree = BuildTree({{"src/core/a.cc", src}});
  const CallGraph cg = BuildCallGraph(tree);
  const EffectMap effects = ComputeEffects(tree, cg);
  // Descend itself never allocates, but it is in a cycle with Record,
  // which does — every member of the SCC carries the union.
  EXPECT_EQ(EffectsOf(tree, cg, effects, "Walker::Descend") & kEffAlloc,
            kEffAlloc);
  EXPECT_EQ(EffectsOf(tree, cg, effects, "Walker::Entry") & kEffAlloc,
            kEffAlloc);
}

TEST(CallGraphTest, IndirectCallsAreConservativelyMayEverything) {
  const std::string src = R"cpp(
struct Visitor {
  void ForEach(void (*visit)(int)) { visit(0); }
  void ForEachFn(const EvictableFn& evictable) { evictable(1); }
};
)cpp";
  TreeModel tree = BuildTree({{"src/core/a.cc", src}});
  const CallGraph cg = BuildCallGraph(tree);
  const EffectMap effects = ComputeEffects(tree, cg);
  // Both the raw function pointer and the std::function-shaped parameter
  // have unknown target sets: the indirect bit is the conservative "may
  // do anything" verdict the hold prover needs.
  EXPECT_EQ(EffectsOf(tree, cg, effects, "Visitor::ForEach") & kEffIndirect,
            kEffIndirect);
  EXPECT_EQ(EffectsOf(tree, cg, effects, "Visitor::ForEachFn") & kEffIndirect,
            kEffIndirect);
}

TEST(CallGraphTest, GuardDeclarationIsAConstruction_NotAnIndirectCall) {
  const std::string src = R"cpp(
struct Pool {
  SpinLock mu_;
  void Drain() {
    SpinLockGuard guard(mu_);
    count_ = 0;
  }
};
)cpp";
  TreeModel tree = BuildTree({{"src/core/a.cc", src}});
  const CallGraph cg = BuildCallGraph(tree);
  const CallNode* drain = cg.Find("Pool::Drain");
  ASSERT_NE(drain, nullptr);
  // `guard` is a local, and `guard(mu_)` is token-identical to a call of
  // it — but the preceding type identifier makes it a declaration. The
  // indirect bit here would poison every guarded function in the tree.
  EXPECT_TRUE(drain->indirect_calls.empty());
}

TEST(CallGraphTest, LambdaInMemberInitListDoesNotSwallowTheCtorBody) {
  const std::string src = R"cpp(
struct Coordinator {
  Coordinator()
      : source_("coord", [this](int snap) {
          return snap + 1;
        }) {
    slots_.reserve(64);
  }
};
)cpp";
  TreeModel tree = BuildTree({{"src/core/a.cc", src}});
  const CallGraph cg = BuildCallGraph(tree);
  const EffectMap effects = ComputeEffects(tree, cg);
  // The lambda's braces sit inside the init list's parens; the modeled
  // body must be the real one after it, where the reserve() allocates.
  EXPECT_EQ(
      EffectsOf(tree, cg, effects, "Coordinator::Coordinator") & kEffAlloc,
      kEffAlloc);
}

TEST(CallGraphTest, AutoMakeUniqueLocalRefinesToTheElementType) {
  const std::string src = R"cpp(
struct Widget {
  void Poke() { log_.push_back(1); }
};
struct Factory {
  void Spawn() {
    auto w = std::make_unique<Widget>();
    w->Poke();
  }
};
)cpp";
  TreeModel tree = BuildTree({{"src/core/a.cc", src}});
  const CallGraph cg = BuildCallGraph(tree);
  const EffectMap effects = ComputeEffects(tree, cg);
  // `auto` alone would leave w untyped and the member call unresolved;
  // the make_unique<T> refinement types it as Widget, so Poke's alloc
  // effect reaches the caller (on top of make_unique's own).
  const CallNode* spawn = cg.Find("Factory::Spawn");
  ASSERT_NE(spawn, nullptr);
  bool calls_poke = false;
  for (const CallEdge& e : spawn->edges) {
    calls_poke |= cg.nodes[e.callee].qualified == "Widget::Poke";
  }
  EXPECT_TRUE(calls_poke);
}

TEST(CallGraphTest, HoldEffectOkExoneratesOneBitWithItsReason) {
  const std::string src = R"cpp(
struct Stash {
  void Push(int v)
      BPW_HOLD_EFFECT_OK(alloc, "capacity reserved at construction") {
    entries_.push_back(v);
  }
  void PushAll() { Push(1); }
};
)cpp";
  TreeModel tree = BuildTree({{"src/core/a.cc", src}});
  const CallGraph cg = BuildCallGraph(tree);
  const EffectMap effects = ComputeEffects(tree, cg);
  // The exonerated bit vanishes from the summary before propagation, so
  // the caller proves clean against the cleansed summary too.
  EXPECT_EQ(EffectsOf(tree, cg, effects, "Stash::Push") & kEffAlloc, 0u);
  EXPECT_EQ(EffectsOf(tree, cg, effects, "Stash::PushAll") & kEffAlloc, 0u);
}

// ------------------------------------------------------ hold-region rules

HoldReport RunHolds(const std::string& source) {
  TreeModel tree = BuildTree({{"src/core/a.cc", source}});
  const CallGraph cg = BuildCallGraph(tree);
  const EffectMap effects = ComputeEffects(tree, cg);
  return CheckHolds(tree, cg, effects);
}

TEST(HoldTest, TransitiveAllocationUnderAGuardFires) {
  HoldReport report = RunHolds(R"cpp(
struct Table {
  ContentionLock lock_;
  void Grow() { cells_.resize(128); }
  void Rehash() { Grow(); }
  void Commit() {
    ContentionLockGuard guard(lock_);
    Rehash();
  }
};
)cpp");
  ASSERT_EQ(report.findings.size(), 1u) << Dump(report.findings);
  EXPECT_EQ(report.findings[0].rule, "hold-alloc");
  // The witness names the chain, not just the symptom — that is what
  // makes the finding actionable two calls away from the resize.
  EXPECT_NE(report.findings[0].message.find("Rehash"), std::string::npos)
      << report.findings[0].message;
}

TEST(HoldTest, BoundedByAnnotationSilencesTheLoopRule) {
  const char* kLoop = R"cpp(
struct Ghosts {
  ContentionLock lock_;
  void Trim() {
    ContentionLockGuard guard(lock_);
    %s
    while (ghosts_.size() > cap_) {
      Drop();
    }
  }
  void Drop() { --count_; }
};
)cpp";
  char with[512], without[512];
  std::snprintf(without, sizeof(without), kLoop, "");
  std::snprintf(with, sizeof(with), kLoop,
                "BPW_BOUNDED_BY(ghosts_.size() - cap_);");
  HoldReport bare = RunHolds(without);
  ASSERT_EQ(bare.findings.size(), 1u) << Dump(bare.findings);
  EXPECT_EQ(bare.findings[0].rule, "hold-unbounded-loop");
  HoldReport annotated = RunHolds(with);
  EXPECT_TRUE(annotated.findings.empty()) << Dump(annotated.findings);
}

TEST(HoldTest, CasRetryLoopsMustBeBoundedAndLockFree) {
  HoldReport report = RunHolds(R"cpp(
struct Counter {
  Mutex fallback_mu_;
  void BumpForever(unsigned long d) {
    unsigned long cur = word_.load();
    while (true) {
      if (word_.compare_exchange_weak(cur, cur + d)) return;
    }
  }
  void BumpBlocking(unsigned long d) {
    unsigned long cur = word_.load();
    BPW_BOUNDED_BY(kMaxWriters);
    while (true) {
      if (word_.compare_exchange_weak(cur, cur + d)) return;
      MutexGuard guard(fallback_mu_);
    }
  }
  void BumpBounded(unsigned long d) {
    unsigned long cur = word_.load();
    for (int i = 0; i < 16; ++i) {
      if (word_.compare_exchange_weak(cur, cur + d)) return;
    }
  }
};
)cpp");
  EXPECT_EQ(Rules(report.findings),
            (std::vector<std::string>{"cas-retry-blocks",
                                      "cas-retry-unbounded"}))
      << Dump(report.findings);
}

TEST(HoldTest, StaticCostRanksTheLoopedRegionHeavier) {
  HoldReport report = RunHolds(R"cpp(
struct TwoLocks {
  ContentionLock cheap_;
  ContentionLock looped_;
  void Quick() {
    ContentionLockGuard guard(cheap_);
    a_ = 1;
  }
  void Sweep() {
    ContentionLockGuard guard(looped_);
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        b_ = i * j;
      }
    }
  }
};
)cpp");
  EXPECT_TRUE(report.findings.empty()) << Dump(report.findings);
  double quick = -1, sweep = -1;
  for (const HoldSite& site : report.sites) {
    if (site.function == "TwoLocks::Quick") quick = site.cost;
    if (site.function == "TwoLocks::Sweep") sweep = site.cost;
  }
  ASSERT_GE(quick, 0);
  ASSERT_GE(sweep, 0);
  // Two nesting levels multiply the inner statement by 64: the ranking,
  // not the absolute number, is the contract reconciliation depends on.
  EXPECT_GT(sweep, quick * 8);
  // The JSON exporter sorts by descending weight, so the looped region
  // leads the document bpw_profile --reconcile consumes.
  const std::string json = HoldCostsToJson(report);
  EXPECT_LT(json.find("TwoLocks::Sweep"), json.find("TwoLocks::Quick"));
}


}  // namespace
}  // namespace analysis
}  // namespace bpw
