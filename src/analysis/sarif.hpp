// SARIF 2.1.0 rendering of a lint report, for GitHub code-scanning
// annotations: one result per actionable finding (exploitable leak,
// layer without a symbolic model, unverified contract, oracle
// disagreement), each located at its symbolic-model witness site when
// the engine produced one.
#pragma once

#include <string>

#include "analysis/lint.hpp"

namespace sce::analysis {

/// Deterministic SARIF 2.1.0 document for `report`.  Always exactly one
/// run, tool name "leakage_lint", tool version analyzer_version().
std::string render_sarif(const LintReport& report);

}  // namespace sce::analysis
