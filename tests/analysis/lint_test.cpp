#include <gtest/gtest.h>

#include "analysis/lint.hpp"
#include "analysis/report.hpp"
#include "tests/core/campaign_helpers.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace sce::analysis {
namespace {

const std::vector<std::size_t> kTinyShape = {1, 12, 12};

TEST(Lint, PassesWithNoGatesConfigured) {
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  const LintReport report = lint(model, kTinyShape, options);
  EXPECT_TRUE(report.passed);
  EXPECT_TRUE(report.failure.empty());
  EXPECT_FALSE(report.cross_checked);
  EXPECT_FALSE(report.analysis.findings.empty());
}

TEST(Lint, VerdictGateFailsDataDependentModel) {
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  options.mode = nn::KernelMode::kDataDependent;
  // A data-dependent CNN leaks at least control flow; gating at the
  // bottom of the lattice must therefore trip.
  options.fail_on = Verdict::kConstantFlow;
  const LintReport report = lint(model, kTinyShape, options);
  EXPECT_FALSE(report.passed);
  EXPECT_NE(report.failure.find("fail-on threshold"), std::string::npos)
      << report.failure;
}

TEST(Lint, ConstantFlowModePassesVerdictGate) {
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  options.mode = nn::KernelMode::kConstantFlow;
  options.fail_on = Verdict::kLeaksControlFlow;
  const LintReport report = lint(model, kTinyShape, options);
  EXPECT_TRUE(report.passed) << report.failure;
  EXPECT_EQ(report.analysis.verdict, Verdict::kConstantFlow);
}

TEST(Lint, CrossCheckRunsAndAgreesOnDeclaredContracts) {
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  options.cross_check = true;
  const LintReport report = lint(model, kTinyShape, options);
  EXPECT_TRUE(report.cross_checked);
  EXPECT_TRUE(report.mismatches.empty());
  EXPECT_TRUE(report.passed) << report.failure;
}

TEST(Lint, CrossCheckOnFastPathValidatesInstrumentedAnchors) {
  // The fast kernels emit no trace, so the oracle cannot observe them
  // directly; cross-check instead validates the *instrumented* anchor
  // contracts that the symbolic refinement chain ties the fast claims
  // to.  With the unverified gate on, the whole fast-path story must
  // hold: no oracle disagreement, no mismatch, nothing unverified.
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  options.cross_check = true;
  options.path = nn::ExecutionPath::kFast;
  options.fail_on_unverified = true;
  const LintReport report = lint(model, kTinyShape, options);
  EXPECT_TRUE(report.cross_checked);
  EXPECT_TRUE(report.mismatches.empty());
  EXPECT_TRUE(report.passed) << report.failure;
  EXPECT_EQ(report.analysis.unverified_layers, 0u);
  EXPECT_EQ(report.analysis.symbolically_verified_layers,
            model.layer_count());
}

TEST(Lint, MismatchedInputShapeThrows) {
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  // 28x28 inputs do not chain through a model built for 12x12.
  EXPECT_THROW(lint(model, {1, 28, 28}, options), Error);
}

TEST(Lint, JsonWitnessPathsAreRepoRelative) {
  // Witness files come from __FILE__, which is absolute when the build
  // passes absolute paths; the report must not carry the build host's
  // checkout directory.
  const nn::Sequential model = core::testing::tiny_model();
  LintOptions options;
  options.mode = nn::KernelMode::kDataDependent;
  const LintReport report = lint(model, kTinyShape, options);
  const util::JsonValue doc = util::parse_json(render_json(report.analysis));
  std::size_t witnesses = 0;
  const util::JsonValue& findings = doc.at("findings");
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const util::JsonValue* list = findings.at(i).find("witnesses");
    if (list == nullptr) continue;
    for (std::size_t j = 0; j < list->size(); ++j, ++witnesses) {
      const std::string file = list->at(j).at("file").as_string();
      EXPECT_FALSE(file.starts_with("/")) << file;
      EXPECT_TRUE(file.starts_with("src/")) << file;
    }
  }
  EXPECT_GT(witnesses, 0u);
}

}  // namespace
}  // namespace sce::analysis
