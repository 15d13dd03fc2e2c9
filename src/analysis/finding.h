// Shared diagnostic record for the analysis library's checkers.
#pragma once

#include <string>

namespace bpw {
namespace analysis {

struct Finding {
  std::string file;
  int line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

/// Renders "file:line: [rule] message".
inline std::string FormatFinding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace analysis
}  // namespace bpw
