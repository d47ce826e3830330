// Rendering of analysis reports: a human-readable lint listing and a
// machine-readable JSON document (the artifact the CI lint stage uploads).
#pragma once

#include <string>

#include "analysis/analyzer.hpp"

namespace sce::analysis {

/// Multi-line lint listing: one row per layer, a verdict summary and the
/// statically predicted distinguishable-event row.
std::string render_text(const AnalysisReport& report);

/// Deterministic JSON document (insertion-ordered keys, stable across
/// runs for identical models) containing everything render_text shows.
/// Witness files are repo-relative.
std::string render_json(const AnalysisReport& report);

/// `file` from its last "src/" directory on.  Witness files come from
/// __FILE__, which is absolute when the build passes absolute paths, so
/// reports use this form to stay independent of the build host.
std::string repo_relative(const std::string& file);

}  // namespace sce::analysis
