// Instrumented softmax kernel, written once over an execution domain
// (domain.hpp) and instantiated for sinks and for the symbolic verifier.
#include "nn/kernels/domain.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/kernels/softmax.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

template <typename D, typename In, typename Out>
void forward_kernel(D d, In x, Out y, std::size_t n) {
  // The running-max compare compiles to a cmov: no branch event, value
  // flow only.  x[0] seeds it with an untraced read.
  auto max_v = d.value(x, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = d.load(x, i);
    max_v = d.select(d.greater(v, max_v), v, max_v);
    d.retire(nn::detail::kCompareInstructions + 1);
  }
  typename D::Value sum = d.constant(0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    const auto e = d.exp(d.value(x, i) - max_v);
    d.store(y, i, e);
    sum = sum + e;
    // exp() costs ~20 instructions in a vectorized libm.
    d.retire(20);
  }
  for (std::size_t i = 0; i < n; ++i) {
    d.store(y, i, d.value(y, i) / sum);
    d.retire(nn::detail::kLoopOverhead + 1);
  }
  d.structural_branches(3 * n);
}

}  // namespace

void softmax_instrumented(const float* in, float* out, std::size_t n,
                          uarch::TraceSink& sink) {
  with_static_sink(sink, [&](auto& to) {
    forward_kernel(ConcreteDomain(to), in, out, n);
  });
}

void softmax_instrumented(std::size_t n, SymbolicExecutor& exec) {
  const SymBuffer in = exec.input_buffer();
  const SymBuffer out = exec.output_buffer(n);
  forward_kernel(SymbolicDomain(exec), in, out, n);
}

namespace {
const detail::KernelRegistration registration{
    {"softmax", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "stable exp-normalize; data-independent, modes identical"},
    {"softmax", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "stable exp-normalize; data-independent, modes identical"},
};
}  // namespace

}  // namespace sce::nn::kernels
