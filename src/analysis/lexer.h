// Shared lexer for the repo's static checker (bpw_check).
//
// The line rules started life on a hand-rolled comment/string blanking
// pass. That regex core mishandled exactly the constructs C++ uses to
// hide code from line-oriented scanners:
//
//   - line continuations: a backslash-newline inside a string literal or a
//     // comment spliced physical lines together, so every line number
//     after it drifted and allow-comments landed on the wrong line;
//   - preprocessor directives: a multi-line #define kept its body visible
//     as "code", so macro implementations (the schedule-point and MC hooks
//     among them) produced phantom lock/alloc sites;
//   - digit separators: 1'000'000 opened a bogus char literal that
//     swallowed real code until the next apostrophe;
//   - raw strings: R"delim(...)delim" containing quotes, `/*`, or code-like
//     text leaked into the cleaned stream.
//
// This lexer is the single tokenization pass every checker module shares.
// It produces, in one scan that never loses physical line structure:
//
//   - `tokens`: identifiers / numbers / punctuation with 1-based line and
//     column (string and char literals are single tokens carrying their
//     contents, so annotation args like BPW_RELAXED_OK("reason") survive);
//   - `cleaned_lines`: the source with comments, string/char contents, and
//     preprocessor directives blanked to spaces — one output line per
//     physical input line, always — for the line-regex rule layer;
//   - `line_allows` / `file_allows`: the `bpw-lint-allow(...)` /
//     `bpw-lint-allow-file(...)` suppressions collected from comments,
//     plus the raw `allow_sites` list the stale-allow audit consumes;
//   - `expect_sites`: the expectation markers of a seeded-violation corpus
//     file (`bpw-check-expect(...)` comments), for --check-expectations.
#pragma once

#include <string>
#include <vector>

namespace bpw {
namespace analysis {

enum class TokKind {
  kIdent,   ///< identifier or keyword
  kNumber,  ///< pp-number (handles 0x1F, 1'000'000, 1.5e9f)
  kPunct,   ///< punctuation; multi-char for `::` and `->`
  kString,  ///< a whole string literal (ordinary or raw)
  kChar,    ///< a char literal
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;  // literal contents (unquoted) for kString/kChar
  int line = 0;      // 1-based physical line the token starts on
  int col = 0;       // 0-based column on that line
};

/// One bpw-lint-allow comment, for staleness auditing: `line` is the
/// 0-based line index the suppression anchors to (the line the comment ends
/// on; it also covers the following line).
struct AllowSite {
  int line = 0;
  std::string rule;
  bool file_scope = false;
};

/// One bpw-check-expect comment: `rule` must fire on 0-based line `line`
/// (the line the comment ends on) or the next one.
struct ExpectSite {
  int line = 0;
  std::string rule;
};

struct LexedSource {
  std::vector<Token> tokens;
  std::vector<std::string> cleaned_lines;
  /// line_allows[i] holds the rules suppressed on 0-based line i.
  std::vector<std::vector<std::string>> line_allows;
  std::vector<std::string> file_allows;
  std::vector<AllowSite> allow_sites;
  std::vector<ExpectSite> expect_sites;

  /// True if `rule` is suppressed on 0-based line index `line_index`.
  bool Allowed(int line_index, const std::string& rule) const;
};

/// Lexes one translation unit. Never fails: unterminated constructs are
/// closed at end of input.
LexedSource Lex(const std::string& source);

}  // namespace analysis
}  // namespace bpw
