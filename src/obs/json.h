// Tiny JSON emission helpers shared by the observability exporters (metrics
// JSON-lines, Chrome trace files, bpw_run --json). Writing only — parsing
// JSON is someone else's problem.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace bpw {
namespace obs {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `"s"` with escaping.
inline std::string JsonString(const std::string& s) {
  // Appended rather than `"\"" + JsonEscape(s) + "\""`: GCC 12 reports a
  // false -Wrestrict on operator+(const char*, std::string&&).
  std::string out = "\"";
  out += JsonEscape(s);
  out += '"';
  return out;
}

/// Formats a double the way JSON expects: no NaN/Inf (emitted as 0), integral
/// values without a fractional part, everything else with enough digits to
/// round-trip metric values.
inline std::string JsonNumber(double v) {
  if (!(v == v) || v > 1.7e308 || v < -1.7e308) return "0";
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) && v < 9.2e18 &&
      v > -9.2e18) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

/// True if `s` is a complete JSON number token (so CSV-ish string cells can
/// be emitted unquoted when they are numeric).
inline bool LooksLikeJsonNumber(const std::string& s) {
  if (s.empty()) return false;
  size_t i = 0;
  if (s[i] == '-') ++i;
  if (i == s.size()) return false;
  bool digits = false, dot = false, exp = false;
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (c >= '0' && c <= '9') {
      digits = true;
    } else if (c == '.' && !dot && !exp) {
      dot = true;
    } else if ((c == 'e' || c == 'E') && digits && !exp) {
      exp = true;
      if (i + 1 < s.size() && (s[i + 1] == '+' || s[i + 1] == '-')) ++i;
      digits = false;
    } else {
      return false;
    }
  }
  return digits;
}

}  // namespace obs
}  // namespace bpw
