#include "analysis/atomics_check.h"

#include <map>
#include <set>
#include <string>

#include "analysis/resolve.h"

namespace bpw {
namespace analysis {

namespace {

bool PathContains(const std::string& path, const std::string& piece) {
  return path.find(piece) != std::string::npos;
}

bool IsLibFile(const std::string& path, const AtomicsOptions& opts) {
  if (opts.all_files_lib) return true;
  if (!PathContains(path, "src/")) return false;
  return !PathContains(path, "src/sync/") &&
         !PathContains(path, "src/analysis/");
}

bool FieldAllowsRelaxed(const FieldDecl& f) {
  return f.HasAnnotation("BPW_RELAXED_OK") ||
         f.HasAnnotation("BPW_PUBLISHED_BY") ||
         f.HasAnnotation("BPW_SEQLOCK_STAMP") ||
         f.HasAnnotation("BPW_GUARDED_BY") ||
         f.HasAnnotation("BPW_PT_GUARDED_BY");
}

bool FieldHasConcurrencyAnnotation(const FieldDecl& f) {
  return FieldAllowsRelaxed(f);
}

bool IsReleaseOrder(const std::string& t) {
  return t == "memory_order_release" || t == "memory_order_acq_rel" ||
         t == "memory_order_seq_cst";
}

bool IsAcquireOrder(const std::string& t) {
  return t == "memory_order_acquire" || t == "memory_order_acq_rel" ||
         t == "memory_order_seq_cst";
}

bool IsStoreOp(const std::string& t) {
  return t == "store" || t == "exchange" || t == "fetch_add" ||
         t == "fetch_sub" || t == "fetch_or" || t == "fetch_and" ||
         t == "fetch_xor";
}

bool IsCasOp(const std::string& t) {
  return t.rfind("compare_exchange", 0) == 0;
}

/// Mutating container/atomic member calls count as writes; everything
/// else reached through '.' is a read.
bool IsMutatingCall(const std::string& t) {
  return IsStoreOp(t) || IsCasOp(t) || t == "push_back" ||
         t == "emplace_back" || t == "assign" || t == "resize" ||
         t == "clear" || t == "insert" || t == "pop_back";
}

struct PayloadUse {
  int first_write_line = 0;
  int first_read_line = 0;
  std::string field_name;
};

class Checker {
 public:
  Checker(const TreeModel& tree, const AtomicsOptions& opts)
      : tree_(tree), opts_(opts) {}

  std::vector<Finding> Run() {
    IndexAnnotations();
    for (const FileModel& fm : tree_.files) {
      if (!IsLibFile(fm.path, opts_)) continue;
      CollectSiteWhitelist(fm);
      CheckRelaxed(fm);
      CheckPublication(fm);
      CheckMcAccess(fm);
    }
    return std::move(findings_);
  }

 private:
  void Report(const FileModel& fm, int line, const std::string& rule,
              const std::string& message) {
    if (!opts_.ignore_allows && fm.lex.Allowed(line - 1, rule)) return;
    findings_.push_back({fm.path, line, rule, message});
  }

  void IndexAnnotations() {
    auto index_field = [&](const FieldDecl& f) {
      const Annotation* pub = f.FindAnnotation("BPW_PUBLISHED_BY");
      if (pub != nullptr) {
        const FieldDecl* stamp =
            ResolveFieldRef(tree_, nullptr, f.owner, "", pub->args);
        if (stamp == nullptr) {
          findings_.push_back(
              {f.file, f.line, "bad-annotation",
               "BPW_PUBLISHED_BY(" + pub->args + ") on '" + f.name +
                   "': stamp field not found in " +
                   (f.owner.empty() ? "file scope" : f.owner)});
        } else {
          payload_stamp_[&f] = stamp;
          payload_by_name_.emplace(f.name, &f);
        }
      }
      if (f.HasAnnotation("BPW_SEQLOCK_STAMP")) seqlock_stamps_.insert(&f);
    };
    for (const FileModel& fm : tree_.files) {
      for (const TypeDecl& t : fm.types) {
        for (const FieldDecl& f : t.fields) index_field(f);
      }
      for (const FieldDecl& f : fm.globals) index_field(f);
    }
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
        if (f != nullptr && FieldAllowsRelaxed(*f)) continue;
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
                         "' which has no BPW_RELAXED_OK / publication / "
                         "capability annotation"
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

  /// True if `fn`'s body publishes `stamp` with release-or-stronger
  /// semantics (explicit release order, default-seq_cst store/RMW, or any
  /// compare_exchange claim).
  bool HasReleasePublish(const FileModel& fm, const FunctionDecl& fn,
                         const FieldDecl* stamp) const {
    return ScanStampOps(fm, fn, stamp, /*want_release=*/true);
  }

  bool HasAcquireObserve(const FileModel& fm, const FunctionDecl& fn,
                         const FieldDecl* stamp) const {
    if (ScanStampOps(fm, fn, stamp, /*want_release=*/false)) return true;
    // An explicit acquire fence in the body also orders the payload reads.
    const std::vector<Token>& toks = fm.lex.tokens;
    for (size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
      if (toks[i].kind == TokKind::kIdent &&
          toks[i].text == "atomic_thread_fence") {
        for (size_t j = i + 1; j < fn.body_end && j < i + 8; ++j) {
          if (toks[j].kind == TokKind::kIdent &&
              IsAcquireOrder(toks[j].text)) {
            return true;
          }
        }
      }
    }
    return false;
  }

  bool ScanStampOps(const FileModel& fm, const FunctionDecl& fn,
                    const FieldDecl* stamp, bool want_release) const {
    const std::vector<Token>& toks = fm.lex.tokens;
    for (size_t i = fn.body_begin; i + 2 < fn.body_end; ++i) {
      if (toks[i].kind != TokKind::kIdent || toks[i].text != stamp->name) {
        continue;
      }
      std::string receiver;
      if (i >= 2 && toks[i - 1].kind == TokKind::kPunct &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
          toks[i - 2].kind == TokKind::kIdent) {
        receiver = toks[i - 2].text;
      }
      const FieldDecl* f =
          ResolveFieldRef(tree_, &fn, fn.qualifier, receiver, stamp->name);
      if (f != stamp) continue;
      if (toks[i + 1].kind != TokKind::kPunct ||
          (toks[i + 1].text != "." && toks[i + 1].text != "->")) {
        continue;
      }
      const std::string& op = toks[i + 2].text;
      if (IsCasOp(op)) return true;  // claim/publish RMW, >= acq_rel here
      const bool relevant = want_release ? IsStoreOp(op) : op == "load";
      if (!relevant) continue;
      // Inspect the call's order argument; none means seq_cst.
      bool explicit_order = false;
      bool strong_enough = false;
      if (i + 3 < fn.body_end && toks[i + 3].kind == TokKind::kPunct &&
          toks[i + 3].text == "(") {
        int depth = 0;
        for (size_t j = i + 3; j < fn.body_end; ++j) {
          if (toks[j].kind == TokKind::kPunct) {
            if (toks[j].text == "(") ++depth;
            if (toks[j].text == ")" && --depth == 0) break;
          }
          if (toks[j].kind == TokKind::kIdent &&
              toks[j].text.rfind("memory_order_", 0) == 0) {
            explicit_order = true;
            strong_enough = want_release ? IsReleaseOrder(toks[j].text)
                                         : IsAcquireOrder(toks[j].text);
          }
        }
      }
      if (!explicit_order || strong_enough) return true;
    }
    return false;
  }

  int CountStampLoads(const FileModel& fm, const FunctionDecl& fn,
                      const FieldDecl* stamp) const {
    const std::vector<Token>& toks = fm.lex.tokens;
    int loads = 0;
    for (size_t i = fn.body_begin; i + 2 < fn.body_end; ++i) {
      if (toks[i].kind != TokKind::kIdent || toks[i].text != stamp->name) {
        continue;
      }
      if (toks[i + 1].kind == TokKind::kPunct &&
          (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
          toks[i + 2].kind == TokKind::kIdent &&
          (toks[i + 2].text == "load" || IsCasOp(toks[i + 2].text))) {
        ++loads;
      }
    }
    return loads;
  }

  bool HasOddTest(const FileModel& fm, const FunctionDecl& fn) const {
    const std::vector<Token>& toks = fm.lex.tokens;
    for (size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
      // `& 1` with any integer suffix (`1u`, `1UL`) counts.
      const std::string& num = toks[i + 1].text;
      const bool is_one = !num.empty() && num[0] == '1' &&
                          num.find_first_not_of("uUlL", 1) == std::string::npos;
      if (toks[i].kind == TokKind::kPunct && toks[i].text == "&" &&
          toks[i + 1].kind == TokKind::kNumber && is_one &&
          i > fn.body_begin &&
          (toks[i - 1].kind == TokKind::kIdent ||
           (toks[i - 1].kind == TokKind::kPunct && toks[i - 1].text == ")"))) {
        return true;
      }
    }
    return false;
  }

  void CheckPublication(const FileModel& fm) {
    if (payload_stamp_.empty()) return;
    const std::vector<Token>& toks = fm.lex.tokens;
    for (const FunctionDecl& fn : fm.functions) {
      if (!fn.has_body) continue;
      // stamp -> usage of its payload inside this function
      std::map<const FieldDecl*, PayloadUse> uses;
      for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::kIdent) continue;
        auto range = payload_by_name_.equal_range(t.text);
        if (range.first == range.second) continue;
        std::string receiver;
        if (i >= 2 && toks[i - 1].kind == TokKind::kPunct &&
            (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
            toks[i - 2].kind == TokKind::kIdent) {
          receiver = toks[i - 2].text;
        }
        const FieldDecl* f =
            ResolveFieldRef(tree_, &fn, fn.qualifier, receiver, t.text);
        auto ps = payload_stamp_.find(f);
        if (ps == payload_stamp_.end()) continue;
        const bool write = ClassifyWrite(toks, i, fn.body_end);
        PayloadUse& use = uses[ps->second];
        use.field_name = f->name;
        if (write && use.first_write_line == 0) use.first_write_line = t.line;
        if (!write && use.first_read_line == 0) use.first_read_line = t.line;
      }
      for (const auto& entry : uses) {
        const FieldDecl* stamp = entry.first;
        const PayloadUse& use = entry.second;
        if (use.first_write_line != 0 &&
            !HasReleasePublish(fm, fn, stamp)) {
          Report(fm, use.first_write_line, "relaxed-publication-store",
                 fn.qualified + " writes published payload '" +
                     use.field_name +
                     "' but never publishes stamp '" + stamp->name +
                     "' with a release-or-stronger store");
        }
        if (use.first_read_line != 0) {
          if (!HasAcquireObserve(fm, fn, stamp)) {
            Report(fm, use.first_read_line, "unordered-publication-read",
                   fn.qualified + " reads published payload '" +
                       use.field_name + "' without an acquire-or-stronger "
                       "load of stamp '" + stamp->name + "'");
          } else if (seqlock_stamps_.count(stamp) > 0) {
            const int loads = CountStampLoads(fm, fn, stamp);
            const bool odd = HasOddTest(fm, fn);
            if (loads < 2 || !odd) {
              Report(fm, use.first_read_line, "torn-seqlock-read",
                     fn.qualified + " reads seqlock payload '" +
                         use.field_name + "' without the full seqlock "
                         "shape (needs >= 2 loads of '" + stamp->name +
                         "' and an odd-test re-check; saw " +
                         std::to_string(loads) + " load(s), odd-test " +
                         (odd ? "present" : "missing") + ")");
            }
          }
        }
      }
    }
  }

  /// Is the payload access at token i a write?
  bool ClassifyWrite(const std::vector<Token>& toks, size_t i,
                     size_t end) const {
    size_t j = i + 1;
    // Skip subscripts: entries[k] = ...
    while (j < end && toks[j].kind == TokKind::kPunct && toks[j].text == "[") {
      int depth = 0;
      for (; j < end; ++j) {
        if (toks[j].kind != TokKind::kPunct) continue;
        if (toks[j].text == "[") ++depth;
        if (toks[j].text == "]" && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    if (j >= end || toks[j].kind != TokKind::kPunct) return false;
    if (toks[j].text == "." || toks[j].text == "->") {
      return j + 1 < end && toks[j + 1].kind == TokKind::kIdent &&
             IsMutatingCall(toks[j + 1].text);
    }
    if (toks[j].text == "=") {
      // '==' lexes as two '=' puncts; '<=' '>=' '!=' put theirs first.
      const bool eq_after = j + 1 < end &&
                            toks[j + 1].kind == TokKind::kPunct &&
                            toks[j + 1].text == "=";
      const bool cmp_before =
          toks[j - 1].kind == TokKind::kPunct &&
          (toks[j - 1].text == "=" || toks[j - 1].text == "!" ||
           toks[j - 1].text == "<" || toks[j - 1].text == ">");
      return !eq_after && !cmp_before;
    }
    // Compound assignment: += -= |= &= ^=
    if ((toks[j].text == "+" || toks[j].text == "-" || toks[j].text == "|" ||
         toks[j].text == "&" || toks[j].text == "^") &&
        j + 1 < end && toks[j + 1].kind == TokKind::kPunct &&
        toks[j + 1].text == "=") {
      return true;
    }
    // ++/--
    if ((toks[j].text == "+" || toks[j].text == "-") && j + 1 < end &&
        toks[j + 1].kind == TokKind::kPunct &&
        toks[j + 1].text == toks[j].text) {
      return true;
    }
    return false;
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
                     "' but the field has no capability or publication "
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
                         tf.name + "' has no capability or publication "
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
  const AtomicsOptions& opts_;
  std::vector<Finding> findings_;
  std::map<const FieldDecl*, const FieldDecl*> payload_stamp_;
  std::multimap<std::string, const FieldDecl*> payload_by_name_;
  std::set<const FieldDecl*> seqlock_stamps_;
  std::set<int> site_ok_;
};

}  // namespace

std::vector<Finding> CheckAtomics(const TreeModel& tree,
                                  const AtomicsOptions& opts) {
  return Checker(tree, opts).Run();
}

}  // namespace analysis
}  // namespace bpw
