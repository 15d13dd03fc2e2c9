#include "util/flag_parse.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace bpw {

StatusOr<uint64_t> ParseUintFlag(const std::string& flag,
                                 const std::string& text, uint64_t max) {
  const std::string want =
      max == std::numeric_limits<uint64_t>::max()
          ? "a non-negative integer"
          : "an integer in [0, " + std::to_string(max) + "]";
  const Status bad = Status::InvalidArgument(flag + ": expected " + want +
                                             ", got '" + text + "'");
  if (text.empty()) return bad;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return bad;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || value > max) return bad;
  return static_cast<uint64_t>(value);
}

StatusOr<double> ParseDoubleFlag(const std::string& flag,
                                 const std::string& text) {
  const Status bad = Status::InvalidArgument(
      flag + ": expected a number, got '" + text + "'");
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return bad;
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    return bad;
  }
  return value;
}

}  // namespace bpw
