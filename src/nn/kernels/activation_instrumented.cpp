// Instrumented ReLU kernel, written once over an execution domain
// (domain.hpp) and instantiated for sinks and for the symbolic verifier.
#include "nn/kernels/activation.hpp"

#include "nn/kernels/domain.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

constexpr KernelSite kNegativeSite = SCE_KERNEL_SITE("relu sign branch (v < 0)");

template <typename D, typename In, typename Out>
void forward_kernel(D d, In in, Out out, std::size_t n, KernelMode mode) {
  const auto zero = d.constant(0.0f);

  for (std::size_t i = 0; i < n; ++i) {
    const auto v = d.load(in, i);
    const auto negative = d.is_negative(v);
    if (mode == KernelMode::kDataDependent) {
      // `if (v < 0) out = 0; else out = v;` compiled as a branch: whether
      // it is taken depends on the sign of the activation.  Both
      // continuations store and retire alike, so only the outcome varies.
      d.branch(kNegativeSite, negative);
      d.retire(nn::detail::kLoopOverhead);
    } else {
      // Branchless maxss(v, 0).
      d.retire(nn::detail::kLoopOverhead + 1);
    }
    d.store(out, i, d.select(negative, zero, v));
  }
  d.structural_branches(n);
}

}  // namespace

void relu_instrumented(const float* in, float* out, std::size_t n,
                       uarch::TraceSink& sink, KernelMode mode) {
  with_static_sink(sink, [&](auto& to) {
    forward_kernel(ConcreteDomain(to), in, out, n, mode);
  });
}

void relu_instrumented(std::size_t n, SymbolicExecutor& exec,
                       KernelMode mode) {
  const SymBuffer in = exec.input_buffer();
  const SymBuffer out = exec.output_buffer(n);
  forward_kernel(SymbolicDomain(exec), in, out, n, mode);
}

namespace {
const detail::KernelRegistration registration{
    {"relu", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "scalar loop, per-element sign branch traced"},
    {"relu", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "scalar loop, branchless max with fixed cost"},
};
}  // namespace

}  // namespace sce::nn::kernels
