// Symbolic kernel verifier: the static half of contract verification.
//
// These tests pin the three integration claims of the symbolic engine:
// (1) every registered kernel cell has a symbolic model, so nothing
// ships unanalyzed; (2) the derived contracts agree with the declared
// ones for every zoo layer in every (mode, path) cell — and, on the
// instrumented path, with what the dynamic trace oracle actually
// observes; (3) the fast path is symbolically verified end to end,
// closing the oracle-unverified gap.  Plus the edge cases the abstract
// domain must not trip over: degenerate geometries, sanitizing layers,
// RNG draws, and a deliberately lying declaration caught with no
// execution at all.
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
#include "util/rng.hpp"

namespace sce::analysis::symexec {
namespace {

using nn::ExecutionPath;
using nn::KernelMode;

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
// fallback to trusting the declaration.

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
// Zoo-wide derived == declared, all four (mode, path) cells.

TEST(SymbolicDerivation, ZooDerivedContractsMatchDeclared) {
  for (const ZooEntry& e : zoo()) {
    for (KernelMode mode : kModes) {
      for (ExecutionPath path : kPaths) {
        const AnalysisReport report = PlanAnalyzer().analyze(
            e.model, e.input_shape, mode, e.name, path);
        EXPECT_EQ(report.mismatched_contracts, 0u)
            << e.name << " " << nn::to_string(mode) << " "
            << nn::to_string(path);
        EXPECT_EQ(report.underived_layers, 0u) << e.name;
        for (const LayerFinding& f : report.findings) {
          EXPECT_TRUE(f.derived_available)
              << e.name << " layer #" << f.index << " " << f.layer_name;
          EXPECT_TRUE(f.derived_matches)
              << e.name << " layer #" << f.index << " " << f.layer_name
              << ": " << f.mismatch_detail;
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
        ASSERT_TRUE(derived.modeled) << e.name << " layer #" << i;
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
// still derive the declared contract (the claims are about what *can*
// vary, and even a 1x1 convolution has a secret center tap).

void expect_all_cells_match(const nn::Layer& layer,
                            const std::vector<std::size_t>& input_shape,
                            const char* what) {
  for (KernelMode mode : kModes) {
    for (ExecutionPath path : kPaths) {
      const LayerVerification v =
          verify_layer(layer, input_shape, mode, path);
      EXPECT_TRUE(v.checked) << what;
      EXPECT_TRUE(v.matches_declared)
          << what << " (" << nn::to_string(mode) << ", "
          << nn::to_string(path) << "): " << v.detail;
      if (path == ExecutionPath::kFast)
        EXPECT_TRUE(v.symbolically_verified) << what << ": " << v.detail;
    }
  }
}

TEST(SymbolicEdgeCases, PaddingOnlyConvRows) {
  // 1x1 input, 3x3 kernel, padding 2: most output pixels see *only*
  // padding (zero in-bounds taps), so entire gather loops vanish into
  // public control flow.  The one secret tap must still drive the
  // derived claims to the declared ones.
  const nn::Conv2D conv(1, 1, 3, /*stride=*/1, /*padding=*/2);
  expect_all_cells_match(conv, {1, 1, 1}, "conv2d 1x1 input, padding 2");
}

TEST(SymbolicEdgeCases, OneByOneKernelConv) {
  const nn::Conv2D conv(2, 3, 1);
  expect_all_cells_match(conv, {2, 4, 4}, "conv2d 1x1 kernel");
}

TEST(SymbolicEdgeCases, SingleUnitDense) {
  const nn::Dense dense(1, 1);
  expect_all_cells_match(dense, {1}, "dense 1->1");

  // In the data-dependent mode even the 1x1 case keeps all four claims:
  // the single row-skip branch still guards real work.
  const DerivedContract derived = derive_layer_contract(
      dense, {1}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.modeled);
  EXPECT_TRUE(derived.contract.branch_outcomes_vary);
  EXPECT_TRUE(derived.contract.branch_count_varies);
  EXPECT_TRUE(derived.contract.address_stream_varies);
  EXPECT_TRUE(derived.contract.instruction_count_varies);
}

TEST(SymbolicEdgeCases, ConstantFlowKernelsDeriveConstant) {
  const nn::Dense dense(3, 2);
  const DerivedContract derived = derive_layer_contract(
      dense, {3}, KernelMode::kConstantFlow, ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.modeled);
  EXPECT_FALSE(derived.contract.input_dependent());
  EXPECT_TRUE(derived.witnesses.empty());
  EXPECT_EQ(derived.contract.taint, nn::TaintTransfer::kPropagate);
}

TEST(SymbolicEdgeCases, DropoutDerivesNoInferenceRng) {
  // Dropout's declared contract promises identity at inference time; the
  // derived one proves the deployed kernel draws no randomness.
  const nn::Dropout dropout(0.5f);
  for (KernelMode mode : kModes) {
    for (ExecutionPath path : kPaths) {
      const DerivedContract derived =
          derive_layer_contract(dropout, {8}, mode, path);
      ASSERT_TRUE(derived.modeled);
      EXPECT_FALSE(derived.contract.consumes_rng);
      EXPECT_FALSE(derived.contract.input_dependent());
      EXPECT_EQ(derived.contract.taint, nn::TaintTransfer::kPropagate);
    }
  }
}

// ---------------------------------------------------------------------
// Custom layers exercising the abstract domain directly.

/// Constant-output layer with a symbolic model: unconditional assigns of
/// public values are strong updates, so the output buffer ends fully
/// public and the engine derives TaintTransfer::kSanitize.
class ModeledSanitizer final : public nn::Layer {
 public:
  std::string name() const override { return "modeled-sanitizer"; }

  using nn::Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace& /*workspace*/, uarch::TraceSink& /*sink*/,
                    KernelMode /*mode*/, ExecutionPath /*path*/) const override {
    if (!output.same_shape(input)) output.resize(input.shape());
    std::fill(output.data(), output.data() + output.numel(), 0.5f);
  }

  using nn::Layer::leakage_contract;
  nn::LeakageContract leakage_contract(KernelMode /*mode*/) const override {
    nn::LeakageContract c;
    c.taint = nn::TaintTransfer::kSanitize;
    return c;
  }
  nn::LeakageContract fast_leakage_contract(KernelMode mode) const override {
    return leakage_contract(mode);
  }

  void symbolic_forward(nn::kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode /*mode*/,
                        ExecutionPath /*path*/) const override {
    std::size_t n = 1;
    for (std::size_t d : input_shape) n *= d;
    (void)exec.input_buffer();
    const nn::kernels::SymBuffer out = exec.output_buffer(n);
    for (std::size_t i = 0; i < n; ++i)
      exec.assign(out, i, nn::kernels::SymValue{});  // public constant
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }
};

/// Identity layer whose kernel draws masking randomness: the model calls
/// rng_draw, so the engine must derive consumes_rng with an "rng"
/// witness — and the declaration honestly says so.
class RngMaskLayer final : public nn::Layer {
 public:
  std::string name() const override { return "rng-mask"; }

  using nn::Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace& /*workspace*/, uarch::TraceSink& /*sink*/,
                    KernelMode /*mode*/, ExecutionPath /*path*/) const override {
    if (!output.same_shape(input)) output.resize(input.shape());
    std::copy(input.data(), input.data() + input.numel(), output.data());
  }

  using nn::Layer::leakage_contract;
  nn::LeakageContract leakage_contract(KernelMode /*mode*/) const override {
    nn::LeakageContract c;
    c.consumes_rng = true;
    return c;
  }
  nn::LeakageContract fast_leakage_contract(KernelMode mode) const override {
    return leakage_contract(mode);
  }

  void symbolic_forward(nn::kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode /*mode*/,
                        ExecutionPath /*path*/) const override {
    std::size_t n = 1;
    for (std::size_t d : input_shape) n *= d;
    const nn::kernels::SymBuffer in = exec.input_buffer();
    const nn::kernels::SymBuffer out = exec.output_buffer(n);
    for (std::size_t i = 0; i < n; ++i) {
      const nn::kernels::SymValue mask =
          exec.rng_draw(SCE_SYM_SITE("mask draw"));
      exec.assign(out, i, join(exec.value(in, i), mask));
    }
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }
};

/// Identity layer wrapping the real ReLU symbolic model but *declaring*
/// constant flow: the classic lying declaration, caught statically.
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

  using nn::Layer::leakage_contract;
  nn::LeakageContract leakage_contract(KernelMode /*mode*/) const override {
    return nn::LeakageContract::constant();  // the lie
  }
  nn::LeakageContract fast_leakage_contract(KernelMode /*mode*/) const override {
    return nn::LeakageContract::constant();
  }

  void symbolic_forward(nn::kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode mode, ExecutionPath path) const override {
    std::size_t n = 1;
    for (std::size_t d : input_shape) n *= d;
    nn::kernels::relu_symbolic(n, exec, mode, path);
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }
};

TEST(SymbolicDomain, UnconditionalPublicStoresDeriveSanitize) {
  const ModeledSanitizer sanitizer;
  const DerivedContract derived = derive_layer_contract(
      sanitizer, {8}, KernelMode::kDataDependent,
      ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.modeled);
  EXPECT_EQ(derived.contract.taint, nn::TaintTransfer::kSanitize);
  EXPECT_FALSE(derived.contract.input_dependent());

  const LayerVerification v = verify_layer(
      sanitizer, {8}, KernelMode::kDataDependent,
      ExecutionPath::kInstrumented);
  EXPECT_TRUE(v.checked);
  EXPECT_TRUE(v.matches_declared) << v.detail;

  // And the analyzer actually *uses* the derived sanitize: downstream
  // taint is cleared by the verified model, not by blind trust.
  nn::Sequential model;
  model.add(std::make_unique<ModeledSanitizer>());
  model.add(std::make_unique<nn::ReLU>());
  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {8}, KernelMode::kDataDependent, "sanitized");
  EXPECT_EQ(report.verdict, Verdict::kConstantFlow);
  EXPECT_EQ(report.findings[1].input_taint, Taint::kClean);
}

TEST(SymbolicDomain, RngDrawDerivesConsumesRngWithWitness) {
  const RngMaskLayer layer;
  const DerivedContract derived = derive_layer_contract(
      layer, {4}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  ASSERT_TRUE(derived.modeled);
  EXPECT_TRUE(derived.contract.consumes_rng);
  EXPECT_EQ(derived.contract.taint, nn::TaintTransfer::kPropagate);
  const auto rng_witness =
      std::find_if(derived.witnesses.begin(), derived.witnesses.end(),
                   [](const Witness& w) { return w.aspect == "rng"; });
  ASSERT_NE(rng_witness, derived.witnesses.end());
  EXPECT_EQ(rng_witness->label, "mask draw");

  const LayerVerification v = verify_layer(
      layer, {4}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  EXPECT_TRUE(v.matches_declared) << v.detail;
}

TEST(SymbolicDomain, LyingDeclarationFailsStaticallyWithoutExecution) {
  const LyingReluLayer liar;
  const LayerVerification v = verify_layer(
      liar, {8}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  EXPECT_TRUE(v.checked);
  EXPECT_FALSE(v.matches_declared);
  EXPECT_NE(v.detail.find("branch_outcomes_vary"), std::string::npos)
      << v.detail;

  // The default lint gate catches it with no oracle run and no kernel
  // execution at all.
  nn::Sequential model;
  model.add(std::make_unique<LyingReluLayer>());
  LintOptions options;
  options.model_name = "liar";
  const LintReport report = lint(model, {8}, options);
  EXPECT_FALSE(report.passed);
  EXPECT_NE(report.failure.find("mismatch"), std::string::npos)
      << report.failure;
  EXPECT_FALSE(report.cross_checked);
  ASSERT_EQ(report.analysis.findings.size(), 1u);
  EXPECT_EQ(report.analysis.mismatched_contracts, 1u);
  EXPECT_EQ(report.analysis.findings[0].severity, Severity::kError);
  // The *derived* truth drives the verdict: the lie cannot launder the
  // layer into constant-flow.
  EXPECT_TRUE(report.analysis.findings[0].exploitable);
  EXPECT_EQ(report.analysis.verdict, Verdict::kLeaksControlFlow);
}

TEST(SymbolicDomain, UnmodeledLayerFallsBackToDeclaration) {
  // A custom layer with no symbolic model is reported underived and its
  // declaration is used unchecked — exactly the pre-symexec behaviour.
  class PlainLayer final : public nn::Layer {
   public:
    std::string name() const override { return "plain"; }
    using nn::Layer::forward_into;
    void forward_into(const nn::Tensor& input, nn::Tensor& output,
                      nn::Workspace&, uarch::TraceSink&, KernelMode,
                      ExecutionPath) const override {
      if (!output.same_shape(input)) output.resize(input.shape());
      std::copy(input.data(), input.data() + input.numel(), output.data());
    }
    using nn::Layer::leakage_contract;
    nn::LeakageContract leakage_contract(KernelMode) const override {
      return nn::LeakageContract::constant();
    }
    nn::Tensor train_forward(const nn::Tensor& input) override {
      return input;
    }
    nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
    std::vector<std::size_t> output_shape(
        const std::vector<std::size_t>& in) const override {
      return in;
    }
  };

  const PlainLayer plain;
  const LayerVerification v = verify_layer(
      plain, {4}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  EXPECT_FALSE(v.checked);
  EXPECT_FALSE(v.detail.empty());

  nn::Sequential model;
  model.add(std::make_unique<PlainLayer>());
  const AnalysisReport report = PlanAnalyzer().analyze(
      model, {4}, KernelMode::kDataDependent, "plain");
  EXPECT_EQ(report.underived_layers, 1u);
  EXPECT_EQ(report.mismatched_contracts, 0u);
  EXPECT_FALSE(report.findings[0].derived_available);
  EXPECT_EQ(report.verdict, Verdict::kConstantFlow);
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
    ASSERT_TRUE(derived.modeled);

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

TEST(SymbolicRefinement, ClaimsEqualIgnoresMetadata) {
  nn::LeakageContract a;
  a.branch_outcomes_vary = true;
  nn::LeakageContract b = a;
  b.path = ExecutionPath::kFast;
  b.shape_scales_trace = true;  // informational, excluded
  b.symbolically_verified = true;
  EXPECT_TRUE(claims_equal(a, b));
  b.consumes_rng = true;
  EXPECT_FALSE(claims_equal(a, b));
}

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
    EXPECT_TRUE(v.checked);
    EXPECT_TRUE(v.matches_declared) << v.detail;
    EXPECT_TRUE(v.symbolically_verified) << v.detail;
  }
  // The instrumented path never claims symbolic verification — there
  // the oracle itself is the authority.
  const LayerVerification inst = verify_layer(
      dense, {4}, KernelMode::kDataDependent, ExecutionPath::kInstrumented);
  EXPECT_FALSE(inst.symbolically_verified);
}

}  // namespace
}  // namespace sce::analysis::symexec
