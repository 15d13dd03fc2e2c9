// Scope graph: the structural model the static analyzers reason over.
//
// Built from the shared lexer's token stream, per translation unit:
//
//   - every type scope (class/struct/union/enum), with its qualified name
//     and the member fields declared in it — each field carrying the
//     analysis annotations attached to its declarator (BPW_GUARDED_BY,
//     BPW_RELAXED_OK, ...);
//   - every function declaration and definition, with its qualifier
//     (enclosing class or A::B:: spelling), trailing annotation macros
//     (BPW_REQUIRES, BPW_ACQUIRE, BPW_EXCLUDES, ...), and — for
//     definitions — the token range of the body;
//   - a per-function local-variable type map (parameters and `Type& x`
//     declarations) good enough to resolve `x.field` member accesses to
//     the declaring type.
//
// The model is deliberately lint-grade, not compiler-grade: it tracks the
// declarations and scopes this repo actually writes (see the engine tests
// for the supported shapes) and degrades by *omitting* what it cannot
// parse, never by inventing structure. Checkers are written so an omitted
// declaration produces a diagnostic ("unannotated"), not silence.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/lexer.h"

namespace bpw {
namespace analysis {

/// One BPW_* annotation macro attached to a declaration, e.g.
/// name="BPW_REQUIRES", args="shard.lock".
struct Annotation {
  std::string name;
  std::string args;
  int line = 0;
};

/// A member-field declaration inside a type scope.
struct FieldDecl {
  std::string name;
  std::string type_text;   ///< joined declarator tokens before the name
  std::string owner;       ///< qualified enclosing type, e.g. "A::B"
  std::string file;
  int line = 0;
  std::vector<Annotation> annotations;

  const Annotation* FindAnnotation(const std::string& macro) const;
  bool HasAnnotation(const std::string& macro) const {
    return FindAnnotation(macro) != nullptr;
  }
};

/// A type scope (class/struct/union/enum).
struct TypeDecl {
  std::string name;
  std::string qualified;  ///< outer::inner chain, no namespaces
  std::string file;
  int line = 0;
  std::vector<FieldDecl> fields;
  /// Base class names from the base-specifier list, as their terminal
  /// identifier (`public core::ReplacementPolicy` records
  /// "ReplacementPolicy"). Empty for enums (their colon introduces an
  /// underlying type, not a base).
  std::vector<std::string> bases;
};

/// A function declaration or definition.
struct FunctionDecl {
  std::string name;       ///< unqualified
  std::string qualifier;  ///< enclosing class or the A::B of A::B::name
  std::string qualified;  ///< qualifier::name (or just name)
  std::string file;
  int line = 0;
  bool has_body = false;
  size_t body_begin = 0;  ///< token index just after the opening '{'
  size_t body_end = 0;    ///< token index of the closing '}'
  std::vector<Annotation> annotations;
  /// Local variable name -> declared type name (params + `Type& x` locals,
  /// unqualified terminal type name). Populated for definitions only.
  std::map<std::string, std::string> local_types;
  /// Range-for loop variable -> the container member it iterates
  /// (`for (auto& tag : frame_tags_)` maps tag -> frame_tags_), so accesses
  /// through the element inherit the container field's annotations.
  std::map<std::string, std::string> local_aliases;

  const Annotation* FindAnnotation(const std::string& macro) const;
  /// All annotations with the given macro name (REQUIRES may repeat).
  std::vector<const Annotation*> FindAll(const std::string& macro) const;
  /// True for the repo convention that FooLocked() runs under a lock.
  bool LockedSuffix() const;
};

/// The per-file model: lexed source plus the scopes parsed out of it.
struct FileModel {
  std::string path;
  LexedSource lex;
  std::vector<TypeDecl> types;
  std::vector<FunctionDecl> functions;
  /// Namespace-scope variable declarations (owner == ""), so globals like a
  /// file-local mutex or counter can carry annotations too.
  std::vector<FieldDecl> globals;
};

/// The whole-tree model with cross-file indexes. Declarations in headers
/// carry the annotations; definitions in .cc files carry the bodies — the
/// indexes join them by qualified name.
struct TreeModel {
  std::vector<FileModel> files;

  /// field name -> every declaration of a member with that name.
  std::multimap<std::string, const FieldDecl*> fields_by_name;
  /// qualified type name AND unqualified name -> type.
  std::multimap<std::string, const TypeDecl*> types_by_name;
  /// qualified function name -> merged annotations from every declaration
  /// and definition of that function.
  std::map<std::string, std::vector<Annotation>> function_annotations;

  void AddFile(FileModel file);
  /// Rebuilds the indexes (AddFile calls it; call manually after mutating
  /// files directly).
  void Reindex();

  /// Resolves a member named `member` accessed from a function of class
  /// `context_class` (may be ""): enclosing class fields first, then
  /// types nested inside it, then a unique global match. Returns nullptr
  /// if nothing (or something ambiguous) matched.
  const FieldDecl* ResolveMember(const std::string& context_class,
                                 const std::string& member) const;
};

/// Parses one file into its model. `path` is used for reporting only.
FileModel BuildFileModel(const std::string& path, const std::string& source);

}  // namespace analysis
}  // namespace bpw
