// LeakageContract semantics plus the per-layer µarch trace oracle: every
// contract derived from a src/nn kernel must agree, claim by claim, with
// the variance the RecordingSink actually observes across probe inputs.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/events.hpp"
#include "analysis/oracle.hpp"
#include "analysis/symexec/engine.hpp"
#include "nn/activation.hpp"
#include "nn/avgpool.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/layer.hpp"
#include "nn/pool.hpp"
#include "nn/rnn.hpp"
#include "nn/shape_ops.hpp"
#include "tests/analysis/analysis_test_helpers.hpp"
#include "util/rng.hpp"

namespace sce::analysis {
namespace {

using nn::ExecutionPath;
using nn::KernelMode;
using nn::LeakageContract;
using testing::LeakyProbeLayer;
using testing::UndeclaredLayer;

TEST(LeakageContract, ConstantIsConstantFlow) {
  const LeakageContract c = LeakageContract::constant();
  EXPECT_TRUE(c.constant_flow());
  EXPECT_FALSE(c.input_dependent());
  EXPECT_TRUE(c.declared);
}

TEST(LeakageContract, UndeclaredIsWorstCase) {
  const LeakageContract c = LeakageContract::undeclared();
  EXPECT_FALSE(c.declared);
  EXPECT_TRUE(c.branch_outcomes_vary);
  EXPECT_TRUE(c.branch_count_varies);
  EXPECT_TRUE(c.address_stream_varies);
  EXPECT_TRUE(c.instruction_count_varies);
  EXPECT_TRUE(c.input_dependent());
}

/// The contract derived from `layer`'s instrumented kernel in `mode`.
LeakageContract derived(const nn::Layer& layer,
                        const std::vector<std::size_t>& shape,
                        KernelMode mode,
                        ExecutionPath path = ExecutionPath::kInstrumented) {
  return symexec::derive_layer_contract(layer, shape, mode, path).contract;
}

TEST(LeakageContract, BaseLayerDefaultIsUndeclared) {
  // The base symbolic_forward reports the layer unmodeled: nothing is
  // derived, so the contract is the worst case on either path.
  UndeclaredLayer layer;
  for (KernelMode mode :
       {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
    for (ExecutionPath path :
         {ExecutionPath::kInstrumented, ExecutionPath::kFast}) {
      LeakageContract expected = LeakageContract::undeclared();
      expected.path = path;
      EXPECT_EQ(derived(layer, {4}, mode, path), expected);
    }
  }
}

TEST(LeakageContract, EveryLibraryLayerIsConstantInConstantFlowMode) {
  struct Case {
    std::unique_ptr<nn::Layer> layer;
    std::vector<std::size_t> shape;
  };
  std::vector<Case> cases;
  cases.push_back({std::make_unique<nn::Conv2D>(1, 2, 3), {1, 6, 6}});
  cases.push_back({std::make_unique<nn::ReLU>(), {8}});
  cases.push_back({std::make_unique<nn::MaxPool2D>(2), {1, 4, 4}});
  cases.push_back({std::make_unique<nn::AvgPool2D>(2), {1, 4, 4}});
  cases.push_back({std::make_unique<nn::Flatten>(), {2, 3, 4}});
  cases.push_back({std::make_unique<nn::Dense>(8, 4), {8}});
  cases.push_back({std::make_unique<nn::Softmax>(), {10}});
  cases.push_back({std::make_unique<nn::Dropout>(0.5f), {8}});
  cases.push_back({std::make_unique<nn::ElmanRNN>(8, 4), {3, 8}});
  for (const Case& c : cases) {
    for (ExecutionPath path :
         {ExecutionPath::kInstrumented, ExecutionPath::kFast}) {
      const LeakageContract contract =
          derived(*c.layer, c.shape, KernelMode::kConstantFlow, path);
      EXPECT_TRUE(contract.declared) << c.layer->name();
      EXPECT_FALSE(contract.input_dependent())
          << c.layer->name() << " derives input dependence under "
          << "constant-flow on the " << to_string(path) << " path";
      EXPECT_FALSE(contract.consumes_rng) << c.layer->name();
    }
  }
}

TEST(LeakageContract, DropoutDrawsNoRngAtInference) {
  // Dropout is identity at inference time: no randomness is consumed in
  // either mode (derived contract), and the dynamic trace is input-invariant
  // (oracle) — the RNG finding must not fire for it.
  nn::Dropout dropout(0.5f);
  for (KernelMode mode :
       {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
    EXPECT_FALSE(derived(dropout, {4, 6}, mode).consumes_rng);
    const TraceVariance observed =
        probe_layer(dropout, default_probes({4, 6}), mode);
    EXPECT_FALSE(observed.any());
  }
}

// The heart of the cross-validation: for each library layer and each
// kernel mode, observed trace variance must equal the contract derived
// from the kernel flag-for-flag.  A symbolic model that over-claims or
// under-claims its kernel fails here.
void expect_contract_matches_oracle(const nn::Layer& layer,
                                    const std::vector<std::size_t>& shape) {
  for (KernelMode mode :
       {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
    const LeakageContract contract = derived(layer, shape, mode);
    ASSERT_TRUE(contract.declared) << layer.name();
    const TraceVariance observed =
        probe_layer(layer, default_probes(shape), mode);
    EXPECT_EQ(contract.branch_outcomes_vary, observed.branch_outcomes)
        << layer.name() << " branch outcomes, " << to_string(mode);
    EXPECT_EQ(contract.branch_count_varies, observed.branch_count)
        << layer.name() << " branch count, " << to_string(mode);
    EXPECT_EQ(contract.address_stream_varies, observed.address_stream)
        << layer.name() << " address stream, " << to_string(mode);
    EXPECT_EQ(contract.instruction_count_varies, observed.instruction_count)
        << layer.name() << " instruction count, " << to_string(mode);
  }
}

TEST(ContractOracle, ReLU) {
  expect_contract_matches_oracle(nn::ReLU(), {3, 5, 5});
}

TEST(ContractOracle, MaxPool) {
  expect_contract_matches_oracle(nn::MaxPool2D(2), {2, 6, 6});
}

TEST(ContractOracle, AvgPool) {
  expect_contract_matches_oracle(nn::AvgPool2D(2), {2, 6, 6});
}

TEST(ContractOracle, FlattenAndSoftmax) {
  expect_contract_matches_oracle(nn::Flatten(), {2, 3, 4});
  expect_contract_matches_oracle(nn::Softmax(), {10});
}

TEST(ContractOracle, ConvDirect) {
  nn::Conv2D conv(2, 3, 3);
  util::Rng rng(11);
  conv.initialize(rng);
  expect_contract_matches_oracle(conv, {2, 6, 6});
}

TEST(ContractOracle, ConvIm2col) {
  nn::Conv2D conv(2, 3, 3);
  conv.set_algorithm(nn::ConvAlgorithm::kIm2col);
  util::Rng rng(11);
  conv.initialize(rng);
  expect_contract_matches_oracle(conv, {2, 6, 6});
}

TEST(ContractOracle, Dense) {
  nn::Dense dense(12, 5);
  util::Rng rng(11);
  dense.initialize(rng);
  expect_contract_matches_oracle(dense, {12});
}

TEST(ContractOracle, ElmanRNN) {
  nn::ElmanRNN rnn(6, 4);
  util::Rng rng(11);
  rnn.initialize(rng);
  expect_contract_matches_oracle(rnn, {1, 5, 6});
  // shape_scales_trace is the one claim the fixed-shape oracle cannot
  // falsify; assert it is derived (both modes) since an RNN's trace
  // length broadcasts the sequence length.
  EXPECT_TRUE(
      derived(rnn, {1, 5, 6}, KernelMode::kDataDependent).shape_scales_trace);
  EXPECT_TRUE(
      derived(rnn, {1, 5, 6}, KernelMode::kConstantFlow).shape_scales_trace);
}

TEST(ContractOracle, HonestLeakyLayerPasses) {
  LeakyProbeLayer honest(/*lie_constant=*/false);
  const TraceVariance observed =
      probe_layer(honest, default_probes({8}), KernelMode::kDataDependent);
  EXPECT_TRUE(observed.branch_outcomes);
  EXPECT_FALSE(observed.branch_count);
  EXPECT_FALSE(observed.address_stream);
  EXPECT_FALSE(observed.instruction_count);
  expect_contract_matches_oracle(honest, {8});
}

TEST(ContractOracle, LyingConstantContractIsCaught) {
  // A kernel that branches on its input, with a symbolic model that
  // reports the branch on a public predicate: the derived contract is
  // constant-flow, and the oracle must observe the branch-outcome
  // variance it denies.
  LeakyProbeLayer liar(/*lie_constant=*/true);
  const LeakageContract contract =
      derived(liar, {8}, KernelMode::kDataDependent);
  EXPECT_TRUE(contract.declared);
  EXPECT_TRUE(contract.constant_flow());
  const TraceVariance observed =
      probe_layer(liar, default_probes({8}), KernelMode::kDataDependent);
  EXPECT_TRUE(observed.branch_outcomes);  // derived false, observed true
}

TEST(Events, VerdictLattice) {
  EXPECT_LT(Verdict::kConstantFlow, Verdict::kLeaksControlFlow);
  EXPECT_LT(Verdict::kLeaksControlFlow, Verdict::kLeaksAddresses);
  EXPECT_EQ(join(Verdict::kConstantFlow, Verdict::kLeaksAddresses),
            Verdict::kLeaksAddresses);
  EXPECT_EQ(verdict_for(LeakageContract::constant()),
            Verdict::kConstantFlow);
  EXPECT_EQ(verdict_for(LeakageContract::undeclared()),
            Verdict::kLeaksAddresses);

  LeakageContract branches_only;
  branches_only.branch_outcomes_vary = true;
  EXPECT_EQ(verdict_for(branches_only), Verdict::kLeaksControlFlow);

  LeakageContract rng_only;
  rng_only.consumes_rng = true;  // noise, not signal: verdict unchanged
  EXPECT_EQ(verdict_for(rng_only), Verdict::kConstantFlow);
}

TEST(Events, ParseVerdictRoundTrips) {
  for (Verdict v : {Verdict::kConstantFlow, Verdict::kLeaksControlFlow,
                    Verdict::kLeaksAddresses}) {
    const auto parsed = parse_verdict(to_string(v));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_EQ(parse_verdict("leaks-control-flow"), Verdict::kLeaksControlFlow);
  EXPECT_FALSE(parse_verdict("bogus").has_value());
}

TEST(Events, PredictedEventsMapping) {
  EXPECT_TRUE(predicted_events(LeakageContract::constant()).empty());

  LeakageContract outcomes;
  outcomes.branch_outcomes_vary = true;
  const EventSet e = predicted_events(outcomes);
  EXPECT_TRUE(e.contains(hpc::HpcEvent::kBranchMisses));
  EXPECT_FALSE(e.contains(hpc::HpcEvent::kBranches));  // count is fixed
  EXPECT_TRUE(e.contains(hpc::HpcEvent::kCycles));

  LeakageContract addresses;
  addresses.address_stream_varies = true;
  const EventSet a = predicted_events(addresses);
  EXPECT_TRUE(a.contains(hpc::HpcEvent::kCacheReferences));
  EXPECT_TRUE(a.contains(hpc::HpcEvent::kCacheMisses));

  // The worst case predicts the full 8-event row.
  EXPECT_EQ(predicted_events(LeakageContract::undeclared()).size(), 8u);
}

}  // namespace
}  // namespace sce::analysis
