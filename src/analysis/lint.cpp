#include "analysis/lint.hpp"

namespace sce::analysis {

LintReport lint(const nn::Sequential& model,
                const std::vector<std::size_t>& input_shape,
                const LintOptions& options) {
  LintReport report;
  const PlanAnalyzer analyzer(options.analyzer);
  report.analysis = analyzer.analyze(model, input_shape, options.mode,
                                     options.model_name, options.path);

  auto fail = [&report](const std::string& why) {
    if (report.passed) {
      report.passed = false;
      report.failure = why;
    }
  };

  if (options.fail_on && report.analysis.verdict >= *options.fail_on)
    fail("verdict " + to_string(report.analysis.verdict) +
         " reaches fail-on threshold " + to_string(*options.fail_on));
  if (options.fail_on_undeclared && report.analysis.undeclared_layers > 0)
    fail(std::to_string(report.analysis.undeclared_layers) +
         " layer(s) without a symbolic model");
  if (options.fail_on_unverified && report.analysis.unverified_layers > 0) {
    fail(std::to_string(report.analysis.unverified_layers) +
         " contract(s) neither oracle-verifiable nor symbolically verified");
  }

  if (options.cross_check) {
    // The oracle replays instrumented kernels regardless of the linted
    // path: on the fast path it validates the instrumented *anchor*
    // contracts, which the symbolic refinement chain ties to the fast
    // claims — together they cover what the oracle alone cannot see.
    report.mismatches = cross_check_model(model, input_shape, options.mode);
    report.cross_checked = true;
    if (!report.mismatches.empty())
      fail("trace oracle disagrees with " +
           std::to_string(report.mismatches.size()) +
           " derived contract(s); first: #" +
           std::to_string(report.mismatches.front().layer_index) + " " +
           report.mismatches.front().layer_name + ": " +
           report.mismatches.front().detail);
  }

  return report;
}

}  // namespace sce::analysis
