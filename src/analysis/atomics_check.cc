#include "analysis/atomics_check.h"

#include <set>
#include <string>

#include "analysis/resolve.h"

namespace bpw {
namespace analysis {

const char* const kAtomicsRules[2] = {"relaxed-unannotated",
                                      "mc-access-unannotated"};

namespace {

bool PathContains(const std::string& path, const std::string& piece) {
  return path.find(piece) != std::string::npos;
}

bool IsLibFile(const std::string& path, bool all_files_lib) {
  if (all_files_lib) return true;
  if (!PathContains(path, "src/")) return false;
  return !PathContains(path, "src/sync/") &&
         !PathContains(path, "src/analysis/");
}

/// The field declares how it is synchronized: relaxed by design, or a
/// capability.
bool FieldHasConcurrencyAnnotation(const FieldDecl& f) {
  return f.HasAnnotation("BPW_RELAXED_OK") ||
         f.HasAnnotation("BPW_GUARDED_BY") ||
         f.HasAnnotation("BPW_PT_GUARDED_BY");
}

class Checker {
 public:
  Checker(const TreeModel& tree, bool all_files_lib)
      : tree_(tree), all_files_lib_(all_files_lib) {}

  std::vector<Finding> Run() {
    for (const FileModel& fm : tree_.files) {
      if (!IsLibFile(fm.path, all_files_lib_)) continue;
      CollectSiteWhitelist(fm);
      CheckRelaxed(fm);
      CheckMcAccess(fm);
    }
    return std::move(findings_);
  }

 private:
  void Report(const FileModel& fm, int line, const std::string& rule,
              const std::string& message) {
    findings_.push_back({fm.path, line, rule, message});
  }

  /// Lines covered by a standalone BPW_RELAXED_OK("reason") statement
  /// (the macro's own line and the next, so it can sit above the access).
  void CollectSiteWhitelist(const FileModel& fm) {
    site_ok_.clear();
    for (const Token& t : fm.lex.tokens) {
      if (t.kind == TokKind::kIdent && t.text == "BPW_RELAXED_OK") {
        site_ok_.insert(t.line);
        site_ok_.insert(t.line + 1);
      }
    }
  }

  const FunctionDecl* EnclosingFunction(const FileModel& fm,
                                        size_t tok_index) const {
    for (const FunctionDecl& fn : fm.functions) {
      if (fn.has_body && fn.body_begin <= tok_index &&
          tok_index < fn.body_end) {
        return &fn;
      }
    }
    return nullptr;
  }

  /// Walks back from an argument token to the '(' of its enclosing call
  /// and extracts `receiver.member.op(` — returns false on no match.
  bool CallContext(const std::vector<Token>& toks, size_t arg_index,
                   std::string* receiver, std::string* member,
                   std::string* op) const {
    int depth = 0;
    size_t k = arg_index;
    size_t steps = 0;
    while (k > 0 && steps++ < 96) {
      const Token& t = toks[k - 1];
      if (t.kind == TokKind::kPunct) {
        if (t.text == ")") ++depth;
        if (t.text == "(") {
          if (depth == 0) break;
          --depth;
        }
      }
      --k;
    }
    if (k < 3) return false;
    const size_t open = k - 1;  // toks[open] == "("
    if (toks[open - 1].kind != TokKind::kIdent) return false;
    *op = toks[open - 1].text;
    if (open < 3 || toks[open - 2].kind != TokKind::kPunct ||
        (toks[open - 2].text != "." && toks[open - 2].text != "->")) {
      return false;
    }
    const size_t m = IdentBeforeSubscript(toks, open - 2);
    if (m == kNoTok) return false;
    *member = toks[m].text;
    if (m >= 2 && toks[m - 1].kind == TokKind::kPunct &&
        (toks[m - 1].text == "." || toks[m - 1].text == "->")) {
      const size_t r = IdentBeforeSubscript(toks, m - 1);
      if (r != kNoTok) *receiver = toks[r].text;
    }
    return true;
  }

  static constexpr size_t kNoTok = static_cast<size_t>(-1);

  /// Index of the identifier ending the expression whose last token is
  /// toks[end - 1], looking through one balanced subscript:
  /// `words[i * 4]` -> the `words` token. kNoTok if the shape is anything
  /// else.
  static size_t IdentBeforeSubscript(const std::vector<Token>& toks,
                                     size_t end) {
    size_t j = end;
    if (j >= 2 && toks[j - 1].kind == TokKind::kPunct &&
        toks[j - 1].text == "]") {
      int depth = 0;
      while (j > 0) {
        const Token& t = toks[j - 1];
        if (t.kind == TokKind::kPunct) {
          if (t.text == "]") ++depth;
          if (t.text == "[" && --depth == 0) {
            --j;
            break;
          }
        }
        --j;
      }
    }
    if (j >= 1 && toks[j - 1].kind == TokKind::kIdent) return j - 1;
    return kNoTok;
  }

  void CheckRelaxed(const FileModel& fm) {
    const std::vector<Token>& toks = fm.lex.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent || t.text != "memory_order_relaxed") {
        continue;
      }
      if (site_ok_.count(t.line) > 0) continue;
      std::string receiver, member, op;
      if (CallContext(toks, i, &receiver, &member, &op)) {
        const FunctionDecl* fn = EnclosingFunction(fm, i);
        const FieldDecl* f = ResolveFieldRef(
            tree_, fn, fn != nullptr ? fn->qualifier : "", receiver, member);
        if (f != nullptr && FieldHasConcurrencyAnnotation(*f)) continue;
        // A local atomic (incl. a reference parameter): the discipline
        // macros attach to field/global declarations, so locals are out of
        // scope — the declaring function owns their ordering story.
        if (f == nullptr && fn != nullptr && receiver.empty() &&
            fn->local_types.count(member) > 0) {
          continue;
        }
        Report(fm, t.line, "relaxed-unannotated",
               f != nullptr
                   ? "relaxed " + op + " of '" + f->owner +
                         (f->owner.empty() ? "" : "::") + f->name +
                         "' which has no BPW_RELAXED_OK / capability "
                         "annotation"
                   : "relaxed " + op + " of '" + member +
                         "' which resolves to no annotated field; annotate "
                         "the field or mark the site BPW_RELAXED_OK(reason)");
        continue;
      }
      Report(fm, t.line, "relaxed-unannotated",
             "memory_order_relaxed at a site the analyzer cannot attribute "
             "to an annotated field; mark the site BPW_RELAXED_OK(reason)");
    }
  }

  void CheckMcAccess(const FileModel& fm) {
    const std::vector<Token>& toks = fm.lex.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent ||
          (t.text != "BPW_MC_ACCESS_READ" && t.text != "BPW_MC_ACCESS_WRITE")) {
        continue;
      }
      if (toks[i + 1].kind != TokKind::kPunct || toks[i + 1].text != "(") {
        continue;
      }
      // Second macro argument: the watched object expression.
      int depth = 0;
      size_t arg_begin = 0;
      size_t close = i + 1;
      for (size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].kind != TokKind::kPunct) continue;
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == "," && depth == 1 && arg_begin == 0) {
          arg_begin = j + 1;
        }
        if (toks[j].text == ")" && --depth == 0) {
          close = j;
          break;
        }
      }
      if (arg_begin == 0 || arg_begin >= close) continue;
      std::string member, receiver;
      bool prev_sep = false;
      for (size_t j = arg_begin; j < close; ++j) {
        if (toks[j].kind == TokKind::kPunct) {
          prev_sep = toks[j].text == "." || toks[j].text == "->";
          continue;
        }
        if (toks[j].kind == TokKind::kIdent) {
          receiver = prev_sep ? member : "";
          member = toks[j].text;
          prev_sep = false;
        }
      }
      if (member.empty()) continue;
      // `this` names the whole object whose discipline is declared on its
      // fields at their own access sites; nothing further to check here.
      if (member == "this") continue;
      const FunctionDecl* fn = EnclosingFunction(fm, i);
      // A whole object passed by name (e.g. `&slot` with `Slot& slot` in
      // scope) is checked type-wide below; a local must never fall through
      // to field-name resolution, which it would shadow.
      std::string type_name;
      if (fn != nullptr && receiver.empty()) {
        auto lt = fn->local_types.find(member);
        if (lt != fn->local_types.end()) type_name = lt->second;
      }
      const FieldDecl* f =
          type_name.empty()
              ? ResolveFieldRef(tree_, fn,
                                fn != nullptr ? fn->qualifier : "", receiver,
                                member)
              : nullptr;
      if (f != nullptr) {
        if (!FieldHasConcurrencyAnnotation(*f)) {
          Report(fm, t.line, "mc-access-unannotated",
                 "race certifier watches '" + f->owner +
                     (f->owner.empty() ? "" : "::") + f->name +
                     "' but the field has no capability or BPW_RELAXED_OK "
                     "annotation");
        }
        continue;
      }
      // Whole-object case: require every field of its type to carry an
      // annotation.
      bool checked = false;
      if (!type_name.empty()) {
        auto range = tree_.types_by_name.equal_range(type_name);
        for (auto it = range.first; it != range.second; ++it) {
          checked = true;
          for (const FieldDecl& tf : it->second->fields) {
            if (!FieldHasConcurrencyAnnotation(tf)) {
              Report(fm, t.line, "mc-access-unannotated",
                     "race certifier watches a " + type_name + " but field '" +
                         tf.name + "' has no capability or BPW_RELAXED_OK "
                         "annotation");
            }
          }
          break;
        }
      }
      if (!checked) {
        Report(fm, t.line, "mc-access-unannotated",
               "race certifier watches '" + member +
                   "' which resolves to no annotated field or known type");
      }
    }
  }

  const TreeModel& tree_;
  const bool all_files_lib_;
  std::vector<Finding> findings_;
  std::set<int> site_ok_;
};

}  // namespace

std::vector<Finding> CheckAtomics(const TreeModel& tree,
                                  bool all_files_lib) {
  return Checker(tree, all_files_lib).Run();
}

}  // namespace analysis
}  // namespace bpw
