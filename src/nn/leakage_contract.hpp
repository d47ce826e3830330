// Per-kernel leakage contracts: how a layer's inference kernel behaves as
// a function of its input, per (KernelMode, ExecutionPath) — the
// vocabulary the static analyzer (src/analysis) composes into whole-model
// verdicts without executing anything.  Contracts are derived from the
// kernels by symbolic execution (analysis/symexec), never written by hand.
//
// Each flag makes a falsifiable claim about the kernel's dynamic trace
// (the TraceSink event stream) and is cross-validated against the uarch
// trace oracle: a derived-varying aspect must actually vary across probe
// inputs, and a derived-invariant aspect must be bit-identical for every
// input of the same shape.
#pragma once

#include <string>

#include "nn/kernels/execution_path.hpp"

namespace sce::nn {

enum class KernelMode;

/// How a layer transforms the secret-taint of its activations.
///  * kPropagate — output values depend on input values (every real layer
///    here); taint flows through.
///  * kSanitize — output is independent of the input values (constant
///    output, or re-randomized); taint is cleared downstream.
enum class TaintTransfer { kPropagate, kSanitize };

std::string to_string(TaintTransfer transfer);

/// Static claims about one kernel's trace, for one KernelMode.  Every
/// claim is phrased as "varies with the input *values* at fixed input
/// shape" — shape-dependent cost (e.g. an RNN's timestep count) is
/// tracked separately because a fixed-shape InferencePlan pins it.
struct LeakageContract {
  /// Outcomes of emitted conditional branches vary with the input
  /// (ReLU's sign branch, MaxPool's max-update branch).
  bool branch_outcomes_vary = false;
  /// The *number* of branches (conditional + structural back-edges)
  /// varies with the input (Dense's row-skip elides whole inner loops).
  bool branch_count_varies = false;
  /// The sequence of accessed addresses varies with the input (skipped
  /// weight rows never touch their cache lines).
  bool address_stream_varies = false;
  /// The total dynamic instruction count varies with the input.
  bool instruction_count_varies = false;
  /// The kernel draws randomness during inference (a masking
  /// countermeasure would; Dropout does *not* — it is identity at
  /// inference time).
  bool consumes_rng = false;
  /// Trace length scales with the input *shape* (RNN timesteps): benign
  /// under a fixed-shape plan, but variable-length deployments broadcast
  /// their length.  Informational; derived by re-running the symbolic
  /// model one step longer, which the fixed-shape oracle cannot check.
  bool shape_scales_trace = false;
  /// How secret taint flows through this layer.
  TaintTransfer taint = TaintTransfer::kPropagate;
  /// False when the layer has no symbolic kernel model (the Layer-base
  /// default), so nothing could be derived and the analyzer must assume
  /// the worst.
  bool declared = true;
  /// Which execution path these claims describe.  Only the instrumented
  /// path emits trace events, so only its contracts can be (and are)
  /// cross-validated by the uarch trace oracle; fast-path contracts are
  /// derived from a model of the generated code, which the analyzer
  /// anchors to the instrumented contract or reports as unverified.
  ExecutionPath path = ExecutionPath::kInstrumented;
  /// Verification metadata, stamped by the analyzer: on the fast path,
  /// this contract refines the oracle-validated instrumented contract of
  /// the same layer.  Excluded from operator== (it describes our
  /// confidence in the claims, not the claims themselves).
  bool symbolically_verified = false;

  /// True if any per-input trace aspect varies (RNG aside).
  bool input_dependent() const {
    return branch_outcomes_vary || branch_count_varies ||
           address_stream_varies || instruction_count_varies;
  }

  /// A kernel with no input dependence and no RNG draw is constant-flow:
  /// its trace is a pure function of shape.
  bool constant_flow() const { return !input_dependent() && !consumes_rng; }

  /// True when the trace oracle can falsify these claims: it replays the
  /// kernel through a RecordingSink, which exists only on the
  /// instrumented path.
  bool oracle_verifiable() const {
    return path == ExecutionPath::kInstrumented;
  }

  /// True when some authority backs these claims: the dynamic trace
  /// oracle (instrumented path) or the symbolic verifier's refinement
  /// chain (fast path).
  bool verified() const { return oracle_verifiable() || symbolically_verified; }

  /// Fully invariant kernel (the countermeasure claim).
  static LeakageContract constant();
  /// Worst-case contract used when a layer has no symbolic model.
  static LeakageContract undeclared();
};

bool operator==(const LeakageContract& a, const LeakageContract& b);
bool operator!=(const LeakageContract& a, const LeakageContract& b);

/// Compact one-line rendering, e.g. "branches(outcomes,count) addresses".
std::string to_string(const LeakageContract& contract);

}  // namespace sce::nn
