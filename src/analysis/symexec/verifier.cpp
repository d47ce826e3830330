#include "analysis/symexec/verifier.hpp"

#include "nn/layer.hpp"

namespace sce::analysis {

const std::string& analyzer_version() {
  // PR 5 analyzer = v1; v2 adds the symbolic verifier (derived
  // contracts change verdicts, so v1 cache entries must not be served);
  // v3 drops hand-declared contracts and derives shape_scales_trace.
  static const std::string version = "analyzer-v3-derived-1";
  return version;
}

namespace symexec {

bool refines(const nn::LeakageContract& a, const nn::LeakageContract& b) {
  const auto implies = [](bool x, bool y) { return !x || y; };
  return implies(a.branch_outcomes_vary, b.branch_outcomes_vary) &&
         implies(a.branch_count_varies, b.branch_count_varies) &&
         implies(a.address_stream_varies, b.address_stream_varies) &&
         implies(a.instruction_count_varies, b.instruction_count_varies) &&
         implies(a.consumes_rng, b.consumes_rng);
}

LayerVerification verify_layer(const nn::Layer& layer,
                               const std::vector<std::size_t>& input_shape,
                               nn::KernelMode mode, nn::ExecutionPath path) {
  LayerVerification result;
  result.derived = derive_layer_contract(layer, input_shape, mode, path);
  if (path != nn::ExecutionPath::kFast) return result;
  if (!result.derived.contract.declared) {
    result.detail = "no symbolic model";
    return result;
  }

  // Anchor the fast claim to the oracle-validated instrumented one.
  const DerivedContract inst = derive_layer_contract(
      layer, input_shape, mode, nn::ExecutionPath::kInstrumented);
  if (!inst.contract.declared) {
    result.detail = "no instrumented model exists to anchor the fast claim";
    return result;
  }
  if (!refines(result.derived.contract, inst.contract)) {
    result.detail =
        "fast path leaks an aspect the instrumented kernel does not";
    return result;
  }
  result.derived.contract.symbolically_verified = true;
  return result;
}

}  // namespace symexec
}  // namespace sce::analysis
