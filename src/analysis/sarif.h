// SARIF 2.1.0 writer for bpw_check.
//
// GitHub code scanning ingests SARIF, so CI can surface linter findings as
// inline pull-request annotations instead of buried job logs. The writer
// emits the minimal valid document: one run, the tool driver with its rule
// ids, and one result per finding at error level with a single physical
// location. File paths are emitted as given (repo-relative when the
// checker is invoked from the repo root, which is how CI runs them).
#pragma once

#include <string>
#include <vector>

#include "analysis/finding.h"

namespace bpw {
namespace analysis {

/// Renders findings as a SARIF 2.1.0 document. `rule_ids` lists every rule
/// the tool can emit (they become reportingDescriptors so code scanning
/// can group by rule even when a rule currently has zero findings).
std::string FindingsToSarif(const std::string& tool_name,
                            const std::vector<std::string>& rule_ids,
                            const std::vector<Finding>& findings);

}  // namespace analysis
}  // namespace bpw
