// PlanAnalyzer: the static leakage linter's core pass.
//
// Walks a Sequential model's layer graph without executing a single
// kernel: shape inference assigns every layer its input/output shapes,
// the secret-taint lattice propagates from the input tensor, and each
// layer's LeakageContract, derived from its kernel by symbolic
// execution, is composed into per-layer findings plus a whole-model
// verdict.  The result is what a measurement campaign would discover
// dynamically — predicted before a single sample is acquired.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/events.hpp"
#include "analysis/symexec/engine.hpp"
#include "analysis/taint.hpp"
#include "nn/model.hpp"

namespace sce::analysis {

enum class Severity : std::uint8_t { kInfo = 0, kWarning = 1, kError = 2 };

std::string to_string(Severity severity);

/// One per layer, in execution order.
struct LayerFinding {
  std::size_t index = 0;
  std::string layer_name;
  std::vector<std::size_t> input_shape;
  std::vector<std::size_t> output_shape;
  /// The contract derived by symbolically executing the layer's kernel
  /// (analysis/symexec) for this (mode, path); worst case when the layer
  /// has no symbolic model (`contract.declared` false).
  nn::LeakageContract contract;
  /// First witness per derived leak aspect (model source site + label).
  std::vector<symexec::Witness> witnesses;
  /// Taint of the activations *entering* this layer.
  Taint input_taint = Taint::kSecret;
  /// Kernel-level classification from the contract alone.
  Verdict kernel_verdict = Verdict::kConstantFlow;
  /// True when the kernel leaks AND its input is secret-tainted — only
  /// these findings raise the model verdict.
  bool exploitable = false;
  /// HPC events predicted distinguishable (empty unless exploitable).
  EventSet predicted;
  Severity severity = Severity::kInfo;
  /// Human-readable explanation of what leaks and why.
  std::string detail;
};

struct AnalysisReport {
  std::string model_name;
  nn::KernelMode mode = nn::KernelMode::kDataDependent;
  /// Execution path the analyzed contracts describe.  Only instrumented
  /// contracts are cross-validated by the trace oracle; a fast-path
  /// report is an honest static description with zero dynamic backing.
  nn::ExecutionPath path = nn::ExecutionPath::kInstrumented;
  std::vector<std::size_t> input_shape;
  std::vector<LayerFinding> findings;  // one per layer
  /// Join over exploitable layer verdicts.
  Verdict verdict = Verdict::kConstantFlow;
  /// Union of predicted events over exploitable layers: the statically
  /// predicted Table 1/2 row for this model.
  EventSet predicted;
  /// Convenience tallies.
  std::size_t exploitable_layers = 0;
  /// Layers with no symbolic kernel model, analyzed as the worst case.
  std::size_t undeclared_layers = 0;
  std::size_t rng_layers = 0;
  /// Layers whose analyzed contract nothing can vouch for: neither the
  /// trace oracle (instrumented path) nor the symbolic verifier's
  /// refinement link (fast path).  Zero for any model built purely from
  /// this library's layers; nonzero only for custom layers with no
  /// symbolic model analyzed on the fast path.
  std::size_t unverified_layers = 0;
  /// Fast-path layers whose contract the symbolic verifier anchored to
  /// the oracle-validated instrumented contract via refinement.
  std::size_t symbolically_verified_layers = 0;

  /// True if `verdict` is at least `threshold` (the --fail-on test), or
  /// if a layer has no symbolic model and `fail_on_undeclared` is set.
  bool fails(Verdict threshold, bool fail_on_undeclared = false) const {
    return verdict >= threshold ||
           (fail_on_undeclared && undeclared_layers > 0);
  }
};

struct AnalyzerOptions {
  /// Severity assigned to exploitable control-flow / address findings.
  Severity control_flow_severity = Severity::kWarning;
  Severity address_severity = Severity::kError;
  /// Severity for layers with no symbolic model.
  Severity undeclared_severity = Severity::kError;
};

class PlanAnalyzer {
 public:
  explicit PlanAnalyzer(AnalyzerOptions options = {});

  /// Analyze `model` for inputs of `input_shape` under `mode`, for the
  /// contracts of `path`'s kernels.  Runs the same shape inference an
  /// InferencePlan would (and throws the same InvalidArgument on a
  /// mis-chained architecture); executes no kernel.  Fast-path findings
  /// are verified by refinement against the instrumented contract, since
  /// no trace exists to falsify them.
  AnalysisReport analyze(
      const nn::Sequential& model, const std::vector<std::size_t>& input_shape,
      nn::KernelMode mode, std::string model_name = "model",
      nn::ExecutionPath path = nn::ExecutionPath::kInstrumented) const;

 private:
  AnalyzerOptions options_;
};

}  // namespace sce::analysis
