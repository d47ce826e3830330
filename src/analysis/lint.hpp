// Library entry point for static leakage linting.
//
// Everything the `leakage_lint` CLI used to wire together by hand —
// analyze, gate on a verdict threshold, optionally cross-validate the
// derived contracts against the µarch trace oracle — in one call, so
// the evaluation service can run the identical admission gate in
// process and reject a submission with the same findings the CLI would
// print.  The CLI is a thin rendering wrapper around this function.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/oracle.hpp"

namespace sce::analysis {

struct LintOptions {
  nn::KernelMode mode = nn::KernelMode::kDataDependent;
  /// Execution path whose contracts to lint.  On the fast path the
  /// dynamic oracle observes nothing directly; cross_check instead runs
  /// the oracle against the *instrumented* anchor contracts, which the
  /// symbolic verifier's refinement chain ties to the fast claims.
  nn::ExecutionPath path = nn::ExecutionPath::kInstrumented;
  /// Name stamped into the report (and into failure messages).
  std::string model_name = "model";
  /// Gate: fail when the model verdict reaches this level (nullopt = no
  /// verdict gate).
  std::optional<Verdict> fail_on;
  /// Gate: fail when any layer has no symbolic kernel model (and so is
  /// analyzed as the worst case).
  bool fail_on_undeclared = false;
  /// Dynamically validate every derived instrumented contract against
  /// the trace oracle; any static-vs-dynamic disagreement fails the lint.
  bool cross_check = false;
  /// Gate: fail when any analyzed contract is neither oracle-verifiable
  /// nor symbolically verified (custom layers with no symbolic model, on
  /// the fast path).  CI turns this on to keep the zoo fully verified.
  bool fail_on_unverified = false;
  AnalyzerOptions analyzer{};
};

struct LintReport {
  /// The full static analysis (findings, verdict, predicted events).
  AnalysisReport analysis;
  /// Oracle disagreements (empty unless options.cross_check found some).
  std::vector<OracleMismatch> mismatches;
  /// True when the oracle cross-check actually ran.
  bool cross_checked = false;
  /// False when any configured gate tripped; `failure` says which.
  bool passed = true;
  /// One-line reason for the first gate failure ("" when passed).
  std::string failure;
};

/// Run the full lint pass.  Throws InvalidArgument on a mis-chained
/// model (the same shape-inference error an InferencePlan would raise);
/// gate failures are reported through LintReport::passed, not exceptions.
LintReport lint(const nn::Sequential& model,
                const std::vector<std::size_t>& input_shape,
                const LintOptions& options);

}  // namespace sce::analysis
