#include "analysis/lexer.h"

#include <cctype>
#include <regex>

namespace bpw {
namespace analysis {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// True if `text` is a string-literal prefix whose literal is raw (ends in
/// R): R, uR, u8R, UR, LR.
bool IsRawPrefix(const std::string& text) {
  return !text.empty() && text.back() == 'R' &&
         (text == "R" || text == "uR" || text == "u8R" || text == "UR" ||
          text == "LR");
}

/// True if `text` is an ordinary string/char prefix: u, u8, U, L.
bool IsEncodingPrefix(const std::string& text) {
  return text == "u" || text == "u8" || text == "U" || text == "L";
}

void CollectMarkers(const std::string& comment_text, int end_line_index,
                    LexedSource* out) {
  static const std::regex kAllow(R"(bpw-lint-allow\(([a-z0-9\-]+)\))");
  static const std::regex kExpect(R"(bpw-check-expect\(([a-z0-9\-]+)\))");
  static const std::regex kAllowFile(R"(bpw-lint-allow-file\(([a-z0-9\-]+)\))");
  for (auto it = std::sregex_iterator(comment_text.begin(),
                                      comment_text.end(), kAllow);
       it != std::sregex_iterator(); ++it) {
    const std::string rule = (*it)[1].str();
    // Does the file-scoped spelling also match the plain pattern with
    // rule "file"? No: the '(' anchors after "allow", so "allow-file(" does
    // not match kAllow. Attach to the comment's end line and the next line.
    out->line_allows[end_line_index].push_back(rule);
    if (end_line_index + 1 < static_cast<int>(out->line_allows.size())) {
      out->line_allows[end_line_index + 1].push_back(rule);
    }
    out->allow_sites.push_back(AllowSite{end_line_index, rule, false});
  }
  for (auto it = std::sregex_iterator(comment_text.begin(),
                                      comment_text.end(), kAllowFile);
       it != std::sregex_iterator(); ++it) {
    out->file_allows.push_back((*it)[1].str());
    out->allow_sites.push_back(AllowSite{end_line_index, (*it)[1].str(), true});
  }
  for (auto it = std::sregex_iterator(comment_text.begin(),
                                      comment_text.end(), kExpect);
       it != std::sregex_iterator(); ++it) {
    out->expect_sites.push_back(ExpectSite{end_line_index, (*it)[1].str()});
  }
}

class Lexer {
 public:
  explicit Lexer(const std::string& source) : src_(source) {
    size_t n = 1;
    for (char c : src_) n += (c == '\n');
    out_.line_allows.assign(n, {});
    out_.cleaned_lines.reserve(n);
  }

  LexedSource Run() {
    while (pos_ < src_.size()) {
      Step();
    }
    // Close any open construct at EOF.
    if (state_ == State::kLineComment || state_ == State::kBlockComment) {
      CollectMarkers(comment_, line_index_, &out_);
    }
    FlushIdent();
    EndLine();
    return std::move(out_);
  }

 private:
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
    kDirective,       // a # preprocessor line (plus continuations)
  };

  char Cur() const { return src_[pos_]; }
  char Peek(size_t ahead = 1) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  /// True when a backslash-newline splice starts at pos_. Handles \r\n.
  bool AtSplice() const {
    if (src_[pos_] != '\\') return false;
    const char n = Peek();
    return n == '\n' || (n == '\r' && Peek(2) == '\n');
  }

  /// Consumes a backslash-newline splice: blanks nothing, ends the physical
  /// line, and continues the current lexical state on the next line.
  void ConsumeSplice() {
    ++pos_;                       // backslash
    if (Cur() == '\r') ++pos_;    // optional CR
    ++pos_;                       // newline
    EndLine();
  }

  void EndLine() {
    out_.cleaned_lines.push_back(cur_line_);
    cur_line_.clear();
    ++line_index_;
  }

  void Emit(char c) { cur_line_ += c; }
  void Blank() { cur_line_ += ' '; }

  void FlushIdent() {
    if (ident_.empty()) return;
    out_.tokens.push_back(Token{ident_is_number_ ? TokKind::kNumber
                                                 : TokKind::kIdent,
                                ident_, ident_line_ + 1, ident_col_});
    ident_.clear();
    ident_is_number_ = false;
  }

  void StartIdent(bool number) {
    ident_line_ = line_index_;
    ident_col_ = static_cast<int>(cur_line_.size());
    ident_is_number_ = number;
  }

  void PushPunct(const std::string& text) {
    out_.tokens.push_back(
        Token{TokKind::kPunct, text, line_index_ + 1,
              static_cast<int>(cur_line_.size())});
  }

  void PushLiteralToken(TokKind kind) {
    out_.tokens.push_back(Token{kind, "", line_index_ + 1,
                                static_cast<int>(cur_line_.size())});
  }

  /// Literal contents are blanked out of cleaned_lines (so they can't fake
  /// code for the regex rules) but kept on the token: annotation string
  /// args (`BPW_RELAXED_OK("reason")`) need the text.
  void AppendToLiteral(char c) {
    if (out_.tokens.empty()) return;
    Token& t = out_.tokens.back();
    if (t.kind == TokKind::kString || t.kind == TokKind::kChar) t.text += c;
  }

  void Step() {
    const char c = Cur();
    switch (state_) {
      case State::kCode:
        StepCode(c);
        break;
      case State::kLineComment:
        if (AtSplice()) {  // a line comment continued by backslash-newline
          comment_ += ' ';
          ConsumeSplice();
          return;
        }
        if (c == '\n') {
          CollectMarkers(comment_, line_index_, &out_);
          comment_.clear();
          state_ = State::kCode;
          EndLine();
          ++pos_;
          return;
        }
        comment_ += c;
        Blank();
        ++pos_;
        break;
      case State::kBlockComment:
        if (c == '\n') {
          comment_ += '\n';
          EndLine();
          ++pos_;
          return;
        }
        if (c == '*' && Peek() == '/') {
          CollectMarkers(comment_, line_index_, &out_);
          comment_.clear();
          state_ = return_to_directive_ ? State::kDirective : State::kCode;
          Blank();
          Blank();
          pos_ += 2;
          return;
        }
        comment_ += c;
        Blank();
        ++pos_;
        break;
      case State::kString:
      case State::kChar: {
        const char close = state_ == State::kString ? '"' : '\'';
        if (AtSplice()) {  // literal spliced across a physical line
          ConsumeSplice();
          return;
        }
        if (c == '\\') {  // escaped char (may be the closing quote)
          Blank();
          ++pos_;
          if (pos_ < src_.size() && Cur() != '\n') {
            AppendToLiteral(Cur());
            Blank();
            ++pos_;
          }
          return;
        }
        if (c == '\n') {  // unterminated literal: recover at the newline
          state_ = State::kCode;
          EndLine();
          ++pos_;
          return;
        }
        if (c == close) {
          state_ = return_to_directive_ ? State::kDirective : State::kCode;
          Blank();
          ++pos_;
          ConsumeUdlSuffix();
          return;
        }
        AppendToLiteral(c);
        Blank();
        ++pos_;
        break;
      }
      case State::kRawString:
        // No escapes, no splices: content is literal until )delim".
        if (c == '\n') {
          EndLine();
          ++pos_;
          return;
        }
        if (c == ')' &&
            src_.compare(pos_ + 1, raw_delim_.size(), raw_delim_) == 0 &&
            pos_ + 1 + raw_delim_.size() < src_.size() &&
            src_[pos_ + 1 + raw_delim_.size()] == '"') {
          pos_ += 2 + raw_delim_.size();
          state_ = return_to_directive_ ? State::kDirective : State::kCode;
          Blank();
          ConsumeUdlSuffix();
          return;
        }
        AppendToLiteral(c);
        Blank();
        ++pos_;
        break;
      case State::kDirective:
        if (AtSplice()) {  // the directive continues on the next line
          ConsumeSplice();
          return;
        }
        if (c == '\n') {
          state_ = State::kCode;
          return_to_directive_ = false;
          EndLine();
          ++pos_;
          return;
        }
        if (c == '/' && Peek() == '/') {
          state_ = State::kLineComment;
          return_to_directive_ = false;  // line comment ends the directive
          comment_.clear();
          Blank();
          Blank();
          pos_ += 2;
          return;
        }
        if (c == '/' && Peek() == '*') {
          state_ = State::kBlockComment;
          return_to_directive_ = true;
          comment_.clear();
          Blank();
          Blank();
          pos_ += 2;
          return;
        }
        // Strings inside directives (#include "x", #define S "y") are
        // consumed here so their quotes cannot open a literal that leaks
        // past the directive.
        if (c == '"') {
          state_ = State::kString;
          return_to_directive_ = true;
          Blank();
          ++pos_;
          return;
        }
        Blank();
        ++pos_;
        break;
    }
  }

  /// A user-defined-literal suffix glued to the closing quote ("abc"sv,
  /// 'x'_c, R"(p)"_path) belongs to the literal: consuming it here keeps
  /// it from surfacing as a spurious identifier token.
  void ConsumeUdlSuffix() {
    while (pos_ < src_.size() && IsIdentChar(Cur())) {
      Blank();
      ++pos_;
    }
  }

  void StepCode(char c) {
    if (AtSplice()) {
      // A splice inside an identifier or pp-number joins the halves
      // (translation phase 2 runs before tokenization): keep the token
      // open across the physical line break.
      ConsumeSplice();
      return;
    }
    if (c == '\n') {
      FlushIdent();
      EndLine();
      ++pos_;
      return;
    }
    // Inside an identifier/number in progress?
    if (!ident_.empty()) {
      if (ident_is_number_) {
        // pp-number: digits, letters, dots, digit separators, exponent
        // signs. `1'000'000`, `0x1Fu`, `1.5e-9` are single tokens.
        if (IsIdentChar(c) || c == '.' ||
            (c == '\'' && IsIdentChar(Peek())) ||
            ((c == '+' || c == '-') &&
             (ident_.back() == 'e' || ident_.back() == 'E' ||
              ident_.back() == 'p' || ident_.back() == 'P'))) {
          ident_ += c;
          Emit(c);
          ++pos_;
          return;
        }
        FlushIdent();
        // fall through to re-dispatch c below
      } else if (IsIdentChar(c)) {
        ident_ += c;
        Emit(c);
        ++pos_;
        return;
      } else if (c == '"') {
        // String prefix: R"..." raw, u8"..." ordinary.
        if (IsRawPrefix(ident_)) {
          ident_.clear();
          ident_is_number_ = false;
          PushLiteralToken(TokKind::kString);
          Blank();  // the quote
          ++pos_;
          raw_delim_.clear();
          while (pos_ < src_.size() && Cur() != '(' && Cur() != '\n') {
            raw_delim_ += Cur();
            Blank();
            ++pos_;
          }
          if (pos_ < src_.size() && Cur() == '(') {
            Blank();
            ++pos_;
          }
          state_ = State::kRawString;
          return;
        }
        if (IsEncodingPrefix(ident_)) {
          ident_.clear();
          ident_is_number_ = false;
          PushLiteralToken(TokKind::kString);
          Blank();
          ++pos_;
          state_ = State::kString;
          return;
        }
        FlushIdent();
        // fall through: plain string start
      } else if (c == '\'' && IsEncodingPrefix(ident_)) {
        ident_.clear();
        ident_is_number_ = false;
        PushLiteralToken(TokKind::kChar);
        Blank();
        ++pos_;
        state_ = State::kChar;
        return;
      } else {
        FlushIdent();
        // fall through to dispatch c
      }
    }

    if (c == '/' && Peek() == '/') {
      state_ = State::kLineComment;
      comment_.clear();
      Blank();
      Blank();
      pos_ += 2;
      return;
    }
    if (c == '/' && Peek() == '*') {
      state_ = State::kBlockComment;
      return_to_directive_ = false;
      comment_.clear();
      Blank();
      Blank();
      pos_ += 2;
      return;
    }
    if (c == '#' && LineBlankSoFar()) {
      state_ = State::kDirective;
      Blank();
      ++pos_;
      return;
    }
    if (c == '"') {
      PushLiteralToken(TokKind::kString);
      state_ = State::kString;
      return_to_directive_ = false;
      Blank();
      ++pos_;
      return;
    }
    if (c == '\'') {
      PushLiteralToken(TokKind::kChar);
      state_ = State::kChar;
      return_to_directive_ = false;
      Blank();
      ++pos_;
      return;
    }
    if (IsIdentStart(c)) {
      StartIdent(/*number=*/false);
      ident_ += c;
      Emit(c);
      ++pos_;
      return;
    }
    if (IsDigit(c)) {
      StartIdent(/*number=*/true);
      ident_ += c;
      Emit(c);
      ++pos_;
      return;
    }
    // Punctuation. `::` and `->` matter to the scope graph; everything
    // else is single-char.
    if (c == ':' && Peek() == ':') {
      PushPunct("::");
      Emit(':');
      Emit(':');
      pos_ += 2;
      return;
    }
    if (c == '-' && Peek() == '>') {
      PushPunct("->");
      Emit('-');
      Emit('>');
      pos_ += 2;
      return;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) {
      PushPunct(std::string(1, c));
    }
    Emit(c);
    ++pos_;
  }

  /// True if everything emitted on the current physical line so far is
  /// whitespace (a `#` here starts a directive).
  bool LineBlankSoFar() const {
    for (char c : cur_line_) {
      if (!std::isspace(static_cast<unsigned char>(c))) return false;
    }
    return true;
  }

  const std::string& src_;
  size_t pos_ = 0;
  State state_ = State::kCode;
  bool return_to_directive_ = false;
  int line_index_ = 0;
  std::string cur_line_;
  std::string comment_;
  std::string raw_delim_;
  std::string ident_;
  bool ident_is_number_ = false;
  int ident_line_ = 0;
  int ident_col_ = 0;
  LexedSource out_;
};

}  // namespace

bool LexedSource::Allowed(int line_index, const std::string& rule) const {
  if (line_index >= 0 && line_index < static_cast<int>(line_allows.size())) {
    for (const std::string& r : line_allows[line_index]) {
      if (r == rule) return true;
    }
  }
  for (const std::string& r : file_allows) {
    if (r == rule) return true;
  }
  return false;
}

LexedSource Lex(const std::string& source) { return Lexer(source).Run(); }

}  // namespace analysis
}  // namespace bpw
