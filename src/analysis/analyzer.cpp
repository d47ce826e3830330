#include "analysis/analyzer.hpp"

#include <utility>

#include "analysis/symexec/verifier.hpp"

namespace sce::analysis {

std::string to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

namespace {

std::string describe(const LayerFinding& finding) {
  const nn::LeakageContract& c = finding.contract;
  if (!c.declared)
    return "no symbolic kernel model; assuming worst case "
           "(input-dependent control flow and addressing)";
  if (!finding.exploitable && finding.kernel_verdict != Verdict::kConstantFlow)
    return "kernel leaks, but its input is not secret-tainted "
           "(upstream layer sanitizes)";
  std::string out;
  if (c.address_stream_varies)
    out = "input-dependent addressing: skipped work elides loads, so the "
          "touched cache lines track the input";
  else if (c.branch_outcomes_vary || c.branch_count_varies)
    out = "input-dependent control flow: branch " +
          std::string(c.branch_count_varies ? "counts" : "outcomes") +
          " track the input";
  else if (c.instruction_count_varies)
    out = "input-dependent instruction count";
  else
    out = "constant flow: trace is a pure function of shape";
  if (c.consumes_rng) out += "; consumes RNG at inference";
  if (c.shape_scales_trace)
    out += "; trace length scales with input shape (fixed under this plan)";
  return out;
}

}  // namespace

PlanAnalyzer::PlanAnalyzer(AnalyzerOptions options) : options_(options) {}

AnalysisReport PlanAnalyzer::analyze(const nn::Sequential& model,
                                     const std::vector<std::size_t>& input_shape,
                                     nn::KernelMode mode,
                                     std::string model_name,
                                     nn::ExecutionPath path) const {
  AnalysisReport report;
  report.model_name = std::move(model_name);
  report.mode = mode;
  report.path = path;
  report.input_shape = input_shape;
  report.findings.reserve(model.layer_count());

  Taint taint = Taint::kSecret;  // the input tensor is the secret
  std::vector<std::size_t> shape = input_shape;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const nn::Layer& layer = model.layer(i);
    LayerFinding finding;
    finding.index = i;
    finding.layer_name = layer.name();
    finding.input_shape = shape;
    shape = layer.output_shape(shape);  // throws on a mis-chained model
    finding.output_shape = shape;
    finding.input_taint = taint;

    symexec::LayerVerification verification =
        symexec::verify_layer(layer, finding.input_shape, mode, path);
    finding.contract = verification.derived.contract;
    finding.witnesses = std::move(verification.derived.witnesses);
    const nn::LeakageContract& contract = finding.contract;

    finding.kernel_verdict = verdict_for(contract);
    finding.exploitable = finding.kernel_verdict != Verdict::kConstantFlow &&
                          taint == Taint::kSecret;

    if (finding.exploitable) {
      finding.predicted = predicted_events(contract);
      report.verdict = join(report.verdict, finding.kernel_verdict);
      report.predicted |= finding.predicted;
      ++report.exploitable_layers;
      finding.severity = finding.kernel_verdict == Verdict::kLeaksAddresses
                             ? options_.address_severity
                             : options_.control_flow_severity;
    }
    if (!contract.declared) {
      ++report.undeclared_layers;
      if (finding.severity < options_.undeclared_severity)
        finding.severity = options_.undeclared_severity;
    }
    if (contract.consumes_rng) ++report.rng_layers;
    finding.detail = describe(finding);
    if (contract.symbolically_verified) ++report.symbolically_verified_layers;
    if (!contract.verified()) {
      ++report.unverified_layers;
      finding.detail +=
          "; fast-path claim could not be anchored to the instrumented "
          "contract — " +
          verification.detail;
    }
    taint = propagate(taint, contract);
    report.findings.push_back(std::move(finding));
  }
  return report;
}

}  // namespace sce::analysis
