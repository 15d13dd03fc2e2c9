// Strict numeric parsing for command-line flag values.
//
// atoi/atof/strtoull read a numeric prefix and stop: "50x" becomes 50 and
// "abc" becomes 0, so a typo silently changes the experiment (or a gate's
// statistics). These parsers take the whole string or nothing, and the
// error names the flag.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "util/status.h"

namespace bpw {

/// `text` as a decimal unsigned integer in [0, max]: digits only, no sign,
/// no surrounding space. InvalidArgument naming `flag` otherwise.
StatusOr<uint64_t> ParseUintFlag(
    const std::string& flag, const std::string& text,
    uint64_t max = std::numeric_limits<uint64_t>::max());

/// `text` as a finite decimal number, with nothing after it.
/// InvalidArgument naming `flag` otherwise.
StatusOr<double> ParseDoubleFlag(const std::string& flag,
                                 const std::string& text);

}  // namespace bpw
