// Deliberate single-rule design corruptions, shared by the analysis
// negative tests and the `deepburning verify --self-test-break` fixture
// path (tests/cli_exit_codes.cmake) so both exercise the same breakage.
#pragma once

#include <string>
#include <vector>

#include "core/generator.h"

namespace db::analysis {

/// The rule ids BreakRule knows how to trip, in catalogue order.
std::vector<std::string> BreakableRules();

/// Minimally corrupt `design` so that VerifyDesign reports the given rule
/// with error severity.  Throws db::Error for an unknown rule id or a design without the artifact the
/// rule needs.
void BreakRule(AcceleratorDesign& design, const std::string& rule);

}  // namespace db::analysis
