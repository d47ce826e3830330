// PlanAnalyzer: taint propagation, verdict composition, edge cases
// (empty model, single layer, unmodeled layers, RNG consumers) and the
// text/JSON report renderers.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/analyzer.hpp"
#include "analysis/report.hpp"
#include "nn/activation.hpp"
#include "nn/zoo.hpp"
#include "tests/analysis/analysis_test_helpers.hpp"
#include "util/json.hpp"

namespace sce::analysis {
namespace {

using nn::KernelMode;
using testing::LeakyProbeLayer;
using testing::RngMaskLayer;
using testing::SanitizingLayer;
using testing::UndeclaredLayer;

TEST(PlanAnalyzer, EmptyModelIsConstantFlow) {
  const nn::Sequential model;
  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {4}, KernelMode::kDataDependent, "empty");
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.verdict, Verdict::kConstantFlow);
  EXPECT_TRUE(report.predicted.empty());
  EXPECT_EQ(report.exploitable_layers, 0u);
  EXPECT_FALSE(report.fails(Verdict::kLeaksControlFlow));
  EXPECT_FALSE(report.fails(Verdict::kLeaksControlFlow,
                            /*fail_on_undeclared=*/true));
}

TEST(PlanAnalyzer, SingleLayerModel) {
  nn::Sequential model;
  model.add(std::make_unique<nn::ReLU>());

  const AnalysisReport leaky = PlanAnalyzer().analyze(
      model, {2, 3, 3}, KernelMode::kDataDependent, "relu");
  ASSERT_EQ(leaky.findings.size(), 1u);
  EXPECT_EQ(leaky.verdict, Verdict::kLeaksControlFlow);
  EXPECT_TRUE(leaky.findings[0].exploitable);
  EXPECT_EQ(leaky.findings[0].input_taint, Taint::kSecret);
  EXPECT_TRUE(leaky.predicted.contains(hpc::HpcEvent::kBranchMisses));
  EXPECT_TRUE(leaky.fails(Verdict::kLeaksControlFlow));
  EXPECT_FALSE(leaky.fails(Verdict::kLeaksAddresses));

  const AnalysisReport hardened = PlanAnalyzer().analyze(
      model, {2, 3, 3}, KernelMode::kConstantFlow, "relu");
  EXPECT_EQ(hardened.verdict, Verdict::kConstantFlow);
  EXPECT_FALSE(hardened.findings[0].exploitable);
}

TEST(PlanAnalyzer, ShapeInferenceRunsPerLayer) {
  nn::Sequential model = nn::build_mnist_cnn();
  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {1, 28, 28}, KernelMode::kDataDependent, "mnist");
  ASSERT_EQ(report.findings.size(), model.layer_count());
  // The chain of shapes must be consistent: each layer's input shape is
  // its predecessor's output shape, starting at the model input.
  EXPECT_EQ(report.findings.front().input_shape,
            (std::vector<std::size_t>{1, 28, 28}));
  for (std::size_t i = 1; i < report.findings.size(); ++i)
    EXPECT_EQ(report.findings[i].input_shape,
              report.findings[i - 1].output_shape);
  EXPECT_EQ(report.findings.back().output_shape,
            model.output_shape({1, 28, 28}));
}

TEST(PlanAnalyzer, SanitizerClearsDownstreamTaint) {
  // leaky -> sanitizer -> leaky: the first probe sees the secret input
  // and is exploitable; the second sees sanitized activations and is
  // not, so it must not contribute to the verdict or the event row.
  nn::Sequential model;
  model.add(std::make_unique<LeakyProbeLayer>());
  model.add(std::make_unique<SanitizingLayer>());
  model.add(std::make_unique<LeakyProbeLayer>());

  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {8}, KernelMode::kDataDependent, "sandwich");
  ASSERT_EQ(report.findings.size(), 3u);
  EXPECT_TRUE(report.findings[0].exploitable);
  EXPECT_EQ(report.findings[2].input_taint, Taint::kClean);
  EXPECT_FALSE(report.findings[2].exploitable);
  EXPECT_TRUE(report.findings[2].predicted.empty());
  EXPECT_EQ(report.exploitable_layers, 1u);
  EXPECT_EQ(report.verdict, Verdict::kLeaksControlFlow);

  // Sanitizer first: nothing downstream ever sees a secret, so the
  // whole model is clean despite containing a leaky kernel.
  nn::Sequential clean;
  clean.add(std::make_unique<SanitizingLayer>());
  clean.add(std::make_unique<LeakyProbeLayer>());
  const AnalysisReport clean_report = PlanAnalyzer().analyze(
      clean, {8}, KernelMode::kDataDependent, "sanitized");
  EXPECT_EQ(clean_report.verdict, Verdict::kConstantFlow);
  EXPECT_EQ(clean_report.exploitable_layers, 0u);
  EXPECT_FALSE(clean_report.fails(Verdict::kLeaksControlFlow));
}

TEST(PlanAnalyzer, UndeclaredLayerIsConservative) {
  nn::Sequential model;
  model.add(std::make_unique<UndeclaredLayer>());
  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {4}, KernelMode::kConstantFlow, "mystery");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_FALSE(report.findings[0].contract.declared);
  EXPECT_EQ(report.findings[0].severity, Severity::kError);
  EXPECT_EQ(report.undeclared_layers, 1u);
  // Worst case even in the hardened mode: nothing was derived.
  EXPECT_EQ(report.verdict, Verdict::kLeaksAddresses);
  EXPECT_TRUE(report.fails(Verdict::kLeaksControlFlow));
  // fail_on_undeclared trips the gate even at an unreachable threshold.
  EXPECT_TRUE(report.fails(Verdict::kLeaksAddresses,
                           /*fail_on_undeclared=*/true));
}

TEST(PlanAnalyzer, RngConsumptionIsReportedNotEscalated) {
  nn::Sequential model;
  model.add(std::make_unique<RngMaskLayer>());
  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {4}, KernelMode::kDataDependent, "masked");
  EXPECT_EQ(report.rng_layers, 1u);
  EXPECT_EQ(report.verdict, Verdict::kConstantFlow);
  EXPECT_EQ(report.exploitable_layers, 0u);
}

TEST(PlanAnalyzer, SeverityOptionsApply) {
  AnalyzerOptions options;
  options.control_flow_severity = Severity::kError;
  nn::Sequential model;
  model.add(std::make_unique<nn::ReLU>());
  const AnalysisReport report = PlanAnalyzer(options).analyze(
      model, {4}, KernelMode::kDataDependent, "relu");
  EXPECT_EQ(report.findings[0].severity, Severity::kError);
}

TEST(Report, TextRenderingNamesVerdictAndLayers) {
  nn::Sequential model = nn::build_mnist_cnn();
  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {1, 28, 28}, KernelMode::kDataDependent, "mnist");
  const std::string text = render_text(report);
  EXPECT_NE(text.find("mnist"), std::string::npos);
  EXPECT_NE(text.find(to_string(report.verdict)), std::string::npos);
  for (const LayerFinding& f : report.findings)
    EXPECT_NE(text.find(f.layer_name), std::string::npos) << f.layer_name;
}

TEST(Report, JsonRoundTripsThroughParser) {
  nn::Sequential model = nn::build_mnist_cnn();
  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {1, 28, 28}, KernelMode::kDataDependent, "mnist");
  const util::JsonValue doc = util::parse_json(render_json(report));

  EXPECT_EQ(doc.at("model").as_string(), "mnist");
  EXPECT_EQ(doc.at("verdict").as_string(), to_string(report.verdict));
  EXPECT_EQ(doc.at("exploitable_layers").as_number(),
            static_cast<double>(report.exploitable_layers));
  const util::JsonValue& findings = doc.at("findings");
  ASSERT_EQ(findings.size(), report.findings.size());
  const util::JsonValue& first = findings.at(std::size_t{0});
  EXPECT_EQ(first.at("layer").as_string(), report.findings[0].layer_name);
  EXPECT_EQ(first.at("verdict").as_string(),
            to_string(report.findings[0].kernel_verdict));
  ASSERT_NE(first.find("contract"), nullptr);
  EXPECT_EQ(first.at("contract").at("branch_outcomes_vary").as_bool(),
            report.findings[0].contract.branch_outcomes_vary);
}

}  // namespace
}  // namespace sce::analysis
