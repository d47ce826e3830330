// Symbolic kernel verifier: every layer's contract is derived from its
// kernel code.
//
// These tests pin the three integration claims of the symbolic engine:
// (1) every registered kernel cell has a symbolic model, so nothing
// ships unanalyzed; (2) every zoo layer's contract is derived in every
// (mode, path) cell and, on the instrumented path, agrees with what the
// dynamic trace oracle actually observes; (3) the fast path is
// symbolically verified end to end, closing the oracle-unverified gap.
// Plus the edge cases the abstract domain must not trip over: degenerate
// geometries, sanitizing layers, RNG draws, shape-scaled traces, an
// unmodeled layer, and lying models the oracle catches.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/lint.hpp"
#include "analysis/oracle.hpp"
#include "analysis/symexec/engine.hpp"
#include "analysis/symexec/verifier.hpp"
#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/kernels/symbolic.hpp"
#include "nn/pool.hpp"
#include "nn/rnn.hpp"
#include "nn/zoo.hpp"
#include "tests/analysis/analysis_test_helpers.hpp"
#include "util/rng.hpp"

namespace sce::analysis::symexec {
namespace {

using nn::ExecutionPath;
using nn::KernelMode;
using testing::LeakyProbeLayer;
using testing::RngMaskLayer;
using testing::SanitizingLayer;
using testing::UndeclaredLayer;

constexpr KernelMode kModes[] = {KernelMode::kDataDependent,
                                 KernelMode::kConstantFlow};
constexpr ExecutionPath kPaths[] = {ExecutionPath::kInstrumented,
                                    ExecutionPath::kFast};

struct ZooEntry {
  const char* name;
  nn::Sequential model;
  std::vector<std::size_t> input_shape;
};

std::vector<ZooEntry> zoo() {
  std::vector<ZooEntry> entries;
  entries.push_back({"mnist", nn::build_mnist_cnn(), {1, 28, 28}});
  entries.push_back({"cifar", nn::build_cifar_cnn(), {3, 32, 32}});
  entries.push_back({"sequence", nn::build_sequence_rnn(), {1, 16, 8}});
  util::Rng rng(7);
  for (ZooEntry& e : entries) e.model.initialize(rng);
  return entries;
}

// ---------------------------------------------------------------------
// Registry completeness: a kernel cell without a symbolic model is a
// hole in the static story, and must be a test failure, not a silent
// fallback to the worst case.

TEST(SymbolicRegistry, CoversEveryRegisteredKernelCell) {
  const auto kernels = nn::kernels::all_kernels();
  ASSERT_FALSE(kernels.empty());
  for (const nn::kernels::KernelEntry& e : kernels) {
    EXPECT_TRUE(nn::kernels::has_symbolic_model(e.op, e.mode, e.path))
        << e.op << " (" << nn::to_string(e.mode) << ", "
        << nn::to_string(e.path) << ") has no symbolic model";
  }
  // And nothing phantom: the model registry is exactly the kernel grid.
  EXPECT_EQ(nn::kernels::all_symbolic_models().size(), kernels.size());
}

TEST(SymbolicRegistry, UnknownCellsAreAbsent) {
  EXPECT_FALSE(nn::kernels::has_symbolic_model(
      "no-such-op", KernelMode::kDataDependent, ExecutionPath::kFast));
}

// ---------------------------------------------------------------------
// Zoo-wide: every layer's contract is derived, all four (mode, path)
// cells.

TEST(SymbolicDerivation, ZooContractsAreAllDerived) {
  for (const ZooEntry& e : zoo()) {
    for (KernelMode mode : kModes) {
      for (ExecutionPath path : kPaths) {
        const AnalysisReport report = PlanAnalyzer().analyze(
            e.model, e.input_shape, mode, e.name, path);
        EXPECT_EQ(report.undeclared_layers, 0u)
            << e.name << " " << nn::to_string(mode) << " "
            << nn::to_string(path);
        for (const LayerFinding& f : report.findings) {
          EXPECT_TRUE(f.contract.declared)
              << e.name << " layer #" << f.index << " " << f.layer_name;
          EXPECT_EQ(f.contract.path, path) << e.name << " " << f.layer_name;
        }
      }
    }
  }
}

// shape_scales_trace is derived by re-running a model one step longer
// along a dimension the layer accepts without changing its output shape:
// only the RNN's timestep axis qualifies and changes the trace volume.
TEST(SymbolicDerivation, ShapeScalesTraceOnlyForTheRnn) {
  const nn::ElmanRNN rnn(8, 4);
  for (KernelMode mode : kModes) {
    for (ExecutionPath path : kPaths) {
      for (const std::vector<std::size_t>& shape :
           {std::vector<std::size_t>{16, 8},
            std::vector<std::size_t>{1, 16, 8}}) {
        EXPECT_TRUE(derive_layer_contract(rnn, shape, mode, path)
                        .contract.shape_scales_trace)
            << nn::to_string(mode) << " " << nn::to_string(path) << " "
            << shape.size() << "-d input";
      }
    }
  }
  for (const ZooEntry& e : zoo()) {
    for (KernelMode mode : kModes) {
      for (ExecutionPath path : kPaths) {
        const AnalysisReport report = PlanAnalyzer().analyze(
            e.model, e.input_shape, mode, e.name, path);
        for (const LayerFinding& f : report.findings) {
          EXPECT_EQ(f.contract.shape_scales_trace, f.layer_name == "elman-rnn")
              << e.name << " layer #" << f.index << " " << f.layer_name
              << " " << nn::to_string(mode) << " " << nn::to_string(path);
        }
      }
    }
  }
}

TEST(SymbolicDerivation, FastPathZooIsFullySymbolicallyVerified) {
  // The acceptance claim of this subsystem: `leakage_lint --path fast`
  // used to tally every layer as oracle-unverified; the refinement
  // chain now vouches for all of them.
  for (const ZooEntry& e : zoo()) {
    for (KernelMode mode : kModes) {
      const AnalysisReport report = PlanAnalyzer().analyze(
          e.model, e.input_shape, mode, e.name, ExecutionPath::kFast);
      EXPECT_EQ(report.unverified_layers, 0u)
          << e.name << " " << nn::to_string(mode);
      EXPECT_EQ(report.symbolically_verified_layers, e.model.layer_count())
          << e.name << " " << nn::to_string(mode);
      for (const LayerFinding& f : report.findings)
        EXPECT_TRUE(f.contract.verified())
            << e.name << " layer #" << f.index << " " << f.layer_name;
    }
  }
}

// ---------------------------------------------------------------------
// Derived == oracle-observed: the symbolic engine and the dynamic trace
// oracle are two independent routes to the same four facts.  They must
// agree on every instrumented zoo layer, both modes.

TEST(SymbolicDerivation, DerivedFlagsMatchDynamicOracle) {
  for (const ZooEntry& e : zoo()) {
    for (KernelMode mode : kModes) {
      // The analyzer's shape inference assigns each layer its input
      // shape; reuse it so the probes match the symbolic geometry.
      const AnalysisReport report = PlanAnalyzer().analyze(
          e.model, e.input_shape, mode, e.name);
      ASSERT_EQ(report.findings.size(), e.model.layer_count());
      for (std::size_t i = 0; i < e.model.layer_count(); ++i) {
        const nn::Layer& layer = e.model.layer(i);
        const std::vector<std::size_t>& shape =
            report.findings[i].input_shape;
        const DerivedContract derived = derive_layer_contract(
            layer, shape, mode, ExecutionPath::kInstrumented);
        ASSERT_TRUE(derived.contract.declared) << e.name << " layer #" << i;
        const TraceVariance observed =
            probe_layer(layer, default_probes(shape), mode);
        const std::string where = std::string(e.name) + " layer #" +
                                  std::to_string(i) + " (" + layer.name() +
                                  ", " + nn::to_string(mode) + ")";
        EXPECT_EQ(derived.contract.branch_outcomes_vary,
                  observed.branch_outcomes)
            << where;
        EXPECT_EQ(derived.contract.branch_count_varies, observed.branch_count)
            << where;
        EXPECT_EQ(derived.contract.address_stream_varies,
                  observed.address_stream)
            << where;
        EXPECT_EQ(derived.contract.instruction_count_varies,
                  observed.instruction_count)
            << where;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Degenerate geometries: shapes where whole loop nests collapse must
// still derive the contract of an ordinary geometry of the same kernel
// (the claims are about what *can* vary, and even a 1x1 convolution has
// a secret center tap).

void expect_all_cells_match(const nn::Layer& layer,
                            const std::vector<std::size_t>& input_shape,
                            const nn::Layer& ordinary,
                            const std::vector<std::size_t>& ordinary_shape,
                            const char* what) {
  for (KernelMode mode : kModes) {
    for (ExecutionPath path : kPaths) {
      const LayerVerification v =
          verify_layer(layer, input_shape, mode, path);
      const nn::LeakageContract expected =
          derive_layer_contract(ordinary, ordinary_shape, mode, path).contract;
      EXPECT_EQ(v.derived.contract, expected)
          << what << " (" << nn::to_string(mode) << ", "
          << nn::to_string(path) << "): " << to_string(v.derived.contract)
          << " vs " << to_string(expected);
      if (path == ExecutionPath::kFast) {
        EXPECT_TRUE(v.derived.contract.symbolically_verified)
            << what << ": " << v.detail;
      }
    }
  }
}

TEST(SymbolicEdgeCases, PaddingOnlyConvRows) {
  // 1x1 input, 3x3 kernel, padding 2: most output pixels see *only*
  // padding (zero in-bounds taps), so entire gather loops vanish into
  // public control flow.  The one secret tap must still drive the
  // derived claims to those of an ordinary input.
  const nn::Conv2D conv(1, 1, 3, /*stride=*/1, /*padding=*/2);
  expect_all_cells_match(conv, {1, 1, 1}, conv, {1, 5, 5},
                         "conv2d 1x1 input, padding 2");
}

TEST(SymbolicEdgeCases, OneByOneKernelConv) {
  const nn::Conv2D conv(2, 3, 1);
  expect_all_cells_match(conv, {2, 4, 4}, nn::Conv2D(2, 3, 3), {2, 6, 6},
                         "conv2d 1x1 kernel");
}

TEST(SymbolicEdgeCases, SingleUnitDense) {
  const nn::Dense dense(1, 1);
  expect_all_cells_match(dense, {1}, nn::Dense(4, 3), {4}, "dense 1->1");

  // In the data-dependent mode even the 1x1 case keeps all four claims:
  // the single row-skip branch still guards real work.
  const DerivedContract derived = derive_layer_contract(
      dense, {1}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.contract.declared);
  EXPECT_TRUE(derived.contract.branch_outcomes_vary);
  EXPECT_TRUE(derived.contract.branch_count_varies);
  EXPECT_TRUE(derived.contract.address_stream_varies);
  EXPECT_TRUE(derived.contract.instruction_count_varies);
}

TEST(SymbolicEdgeCases, ConstantFlowKernelsDeriveConstant) {
  const nn::Dense dense(3, 2);
  const DerivedContract derived = derive_layer_contract(
      dense, {3}, KernelMode::kConstantFlow, ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.contract.declared);
  EXPECT_FALSE(derived.contract.input_dependent());
  EXPECT_TRUE(derived.witnesses.empty());
  EXPECT_EQ(derived.contract.taint, nn::TaintTransfer::kPropagate);
}

TEST(SymbolicEdgeCases, DropoutDerivesNoInferenceRng) {
  // Dropout is identity at inference time: the derived contract proves
  // the deployed kernel draws no randomness.
  const nn::Dropout dropout(0.5f);
  for (KernelMode mode : kModes) {
    for (ExecutionPath path : kPaths) {
      const DerivedContract derived =
          derive_layer_contract(dropout, {8}, mode, path);
      ASSERT_TRUE(derived.contract.declared);
      EXPECT_FALSE(derived.contract.consumes_rng);
      EXPECT_FALSE(derived.contract.input_dependent());
      EXPECT_EQ(derived.contract.taint, nn::TaintTransfer::kPropagate);
    }
  }
}

// ---------------------------------------------------------------------
// Custom layers exercising the abstract domain directly.

/// Identity layer whose kernel is a traceless copy but whose symbolic
/// model is ReLU's: the model over-claims a sign branch the kernel never
/// takes, which the trace oracle catches.
class LyingReluLayer final : public nn::Layer {
 public:
  std::string name() const override { return "lying-relu"; }

  using nn::Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace& /*workspace*/, uarch::TraceSink& /*sink*/,
                    KernelMode /*mode*/, ExecutionPath /*path*/) const override {
    if (!output.same_shape(input)) output.resize(input.shape());
    std::copy(input.data(), input.data() + input.numel(), output.data());
  }

  void symbolic_forward(nn::kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode mode, ExecutionPath path) const override {
    nn::kernels::relu_symbolic(testing::numel_of(input_shape), exec, mode,
                               path);
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }
};

TEST(SymbolicDomain, UnconditionalPublicStoresDeriveSanitize) {
  const SanitizingLayer sanitizer;
  const DerivedContract derived = derive_layer_contract(
      sanitizer, {8}, KernelMode::kDataDependent,
      ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.contract.declared);
  EXPECT_EQ(derived.contract.taint, nn::TaintTransfer::kSanitize);
  EXPECT_FALSE(derived.contract.input_dependent());

  // And the analyzer actually *uses* the derived sanitize: downstream
  // taint is cleared by the model, so a leaky kernel after it is not
  // exploitable.
  nn::Sequential model;
  model.add(std::make_unique<SanitizingLayer>());
  model.add(std::make_unique<nn::ReLU>());
  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {8}, KernelMode::kDataDependent, "sanitized");
  EXPECT_EQ(report.verdict, Verdict::kConstantFlow);
  EXPECT_EQ(report.findings[1].input_taint, Taint::kClean);
  EXPECT_EQ(report.findings[1].kernel_verdict, Verdict::kLeaksControlFlow);
  EXPECT_FALSE(report.findings[1].exploitable);
}

TEST(SymbolicDomain, RngDrawDerivesConsumesRngWithWitness) {
  const RngMaskLayer layer;
  const DerivedContract derived = derive_layer_contract(
      layer, {4}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.contract.declared);
  EXPECT_TRUE(derived.contract.consumes_rng);
  EXPECT_FALSE(derived.contract.input_dependent());
  EXPECT_EQ(derived.contract.taint, nn::TaintTransfer::kPropagate);
  const auto rng_witness =
      std::find_if(derived.witnesses.begin(), derived.witnesses.end(),
                   [](const Witness& w) { return w.aspect == "rng"; });
  ASSERT_NE(rng_witness, derived.witnesses.end());
  EXPECT_EQ(rng_witness->label, "mask draw");
}

TEST(SymbolicDomain, LyingModelIsCaughtByTheOracle) {
  // Under-claim: the kernel branches on the sign of its input, but the
  // model reports that branch on a public predicate.  The static
  // analysis can only trust the model, so the default lint passes; the
  // trace oracle observes the variance the derived contract denies.
  nn::Sequential quiet_liar;
  quiet_liar.add(std::make_unique<LeakyProbeLayer>(/*lie_constant=*/true));
  LintOptions options;
  options.model_name = "liar";
  options.fail_on = Verdict::kLeaksControlFlow;
  const LintReport unchecked = lint(quiet_liar, {8}, options);
  EXPECT_TRUE(unchecked.passed) << unchecked.failure;
  EXPECT_EQ(unchecked.analysis.verdict, Verdict::kConstantFlow);

  options.cross_check = true;
  const LintReport caught = lint(quiet_liar, {8}, options);
  EXPECT_TRUE(caught.cross_checked);
  EXPECT_FALSE(caught.passed);
  ASSERT_EQ(caught.mismatches.size(), 1u);
  EXPECT_NE(caught.mismatches[0].detail.find(
                "branch outcomes: derived invariant, trace oracle observed "
                "varying"),
            std::string::npos)
      << caught.mismatches[0].detail;

  // Over-claim: a traceless kernel whose model is ReLU's.  The derived
  // contract drives the verdict, and the oracle reports the other
  // direction of the disagreement.
  nn::Sequential loud_liar;
  loud_liar.add(std::make_unique<LyingReluLayer>());
  options.fail_on.reset();
  const LintReport over = lint(loud_liar, {8}, options);
  EXPECT_TRUE(over.analysis.findings[0].exploitable);
  EXPECT_EQ(over.analysis.verdict, Verdict::kLeaksControlFlow);
  EXPECT_FALSE(over.passed);
  ASSERT_EQ(over.mismatches.size(), 1u);
  EXPECT_NE(over.mismatches[0].detail.find(
                "branch outcomes: derived varying, trace oracle observed "
                "invariant"),
            std::string::npos)
      << over.mismatches[0].detail;
}

TEST(SymbolicDomain, UnmodeledLayerIsWorstCase) {
  // A custom layer with no symbolic model gets the worst-case contract
  // on either path: it is tallied, trips fail_on_undeclared, and on the
  // fast path nothing can vouch for it.
  const UndeclaredLayer plain;
  const LayerVerification v = verify_layer(
      plain, {4}, KernelMode::kConstantFlow, ExecutionPath::kFast);
  EXPECT_FALSE(v.derived.contract.declared);
  EXPECT_FALSE(v.derived.contract.symbolically_verified);
  EXPECT_FALSE(v.detail.empty());

  nn::Sequential model;
  model.add(std::make_unique<UndeclaredLayer>());
  LintOptions options;
  options.model_name = "plain";
  options.mode = KernelMode::kConstantFlow;
  options.path = ExecutionPath::kFast;
  const LintReport lenient = lint(model, {4}, options);
  EXPECT_TRUE(lenient.passed) << lenient.failure;
  EXPECT_EQ(lenient.analysis.undeclared_layers, 1u);
  EXPECT_EQ(lenient.analysis.unverified_layers, 1u);
  EXPECT_EQ(lenient.analysis.verdict, Verdict::kLeaksAddresses);
  EXPECT_EQ(lenient.analysis.findings[0].contract,
            [] {
              nn::LeakageContract c = nn::LeakageContract::undeclared();
              c.path = ExecutionPath::kFast;
              return c;
            }());

  options.fail_on_undeclared = true;
  const LintReport strict = lint(model, {4}, options);
  EXPECT_FALSE(strict.passed);
  EXPECT_NE(strict.failure.find("without a symbolic model"),
            std::string::npos)
      << strict.failure;
}

// ---------------------------------------------------------------------
// Witnesses: every derived leak claim on the instrumented path names the
// branch site in the kernel source that produced it.

TEST(SymbolicWitnesses, DenseWitnessesNameModelSites) {
  struct Case {
    std::unique_ptr<nn::Layer> layer;
    std::vector<std::size_t> input_shape;
    const char* kernel_file;
    std::vector<std::string> aspects;
  };
  auto conv = [](nn::ConvAlgorithm algorithm) {
    auto layer = std::make_unique<nn::Conv2D>(2, 3, 3, 1, 1);
    layer->set_algorithm(algorithm);
    return layer;
  };
  const std::vector<std::string> all_count_aspects = {
      "branch-outcomes", "branch-count", "address-stream",
      "instruction-count"};
  const std::vector<std::string> zero_skip_aspects = {
      "branch-outcomes", "address-stream", "instruction-count"};
  std::vector<Case> cases;
  cases.push_back({std::make_unique<nn::Dense>(4, 3), {4},
                   "dense_instrumented.cpp", all_count_aspects});
  cases.push_back({conv(nn::ConvAlgorithm::kDirect), {2, 5, 5},
                   "conv2d_instrumented.cpp", zero_skip_aspects});
  cases.push_back({conv(nn::ConvAlgorithm::kIm2col), {2, 5, 5},
                   "conv2d_instrumented.cpp", zero_skip_aspects});
  cases.push_back({std::make_unique<nn::ReLU>(), {6},
                   "activation_instrumented.cpp", {"branch-outcomes"}});
  cases.push_back({std::make_unique<nn::MaxPool2D>(2), {2, 4, 4},
                   "pooling_instrumented.cpp", {"branch-outcomes"}});
  cases.push_back({std::make_unique<nn::ElmanRNN>(3, 4), {2, 3},
                   "rnn_instrumented.cpp", all_count_aspects});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.layer->name() + " / " + c.kernel_file);
    const DerivedContract derived =
        derive_layer_contract(*c.layer, c.input_shape,
                              KernelMode::kDataDependent,
                              ExecutionPath::kInstrumented);
    ASSERT_TRUE(derived.contract.declared);

    std::vector<std::string> aspects;
    for (const Witness& w : derived.witnesses) {
      aspects.push_back(w.aspect);
      EXPECT_FALSE(w.file.empty()) << w.aspect;
      EXPECT_GT(w.line, 0) << w.aspect;
      EXPECT_FALSE(w.label.empty()) << w.aspect;
      EXPECT_FALSE(w.detail.empty()) << w.aspect;
      EXPECT_NE(w.file.find(c.kernel_file), std::string::npos) << w.file;
    }
    std::sort(aspects.begin(), aspects.end());
    std::vector<std::string> expected = c.aspects;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(aspects, expected);
  }
}

// ---------------------------------------------------------------------
// The refinement chain: fast claims anchored to instrumented ones.

TEST(SymbolicRefinement, RefinesIsPointwiseImplication) {
  nn::LeakageContract quiet;                   // leaks nothing
  nn::LeakageContract loud = quiet;
  loud.branch_outcomes_vary = true;
  loud.address_stream_varies = true;
  EXPECT_TRUE(refines(quiet, loud));           // leaking less is fine
  EXPECT_TRUE(refines(loud, loud));
  EXPECT_FALSE(refines(loud, quiet));          // leaking more is not
}

TEST(SymbolicRefinement, FastDenseIsAnchoredToInstrumented) {
  const nn::Dense dense(4, 3);
  for (KernelMode mode : kModes) {
    const LayerVerification v =
        verify_layer(dense, {4}, mode, ExecutionPath::kFast);
    EXPECT_TRUE(v.derived.contract.declared);
    EXPECT_TRUE(v.derived.contract.symbolically_verified) << v.detail;
    EXPECT_TRUE(v.detail.empty()) << v.detail;
  }
  // The instrumented path never claims symbolic verification — there
  // the oracle itself is the authority.
  const LayerVerification inst = verify_layer(
      dense, {4}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  EXPECT_FALSE(inst.derived.contract.symbolically_verified);
}

}  // namespace
}  // namespace sce::analysis::symexec
