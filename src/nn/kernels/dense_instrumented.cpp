// Instrumented Dense kernel: input-stationary scalar GEMV with the
// sparse-GEMM row skip, written once over an execution domain
// (domain.hpp) and instantiated for sinks and for the symbolic verifier.
#include "nn/kernels/dense.hpp"

#include "nn/kernels/domain.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

constexpr KernelSite kRowSkipSite =
    SCE_KERNEL_SITE("dense row-skip (x[i]==0 elides the weight row)");

template <typename D, typename In, typename Out>
void forward_kernel(D d, const DenseGeom& g, In x, In weights, In bias, Out y,
                    KernelMode mode) {
  const std::size_t in = g.in_features;
  const std::size_t out = g.out_features;

  // Accumulators initialized with the bias vector.
  for (std::size_t o = 0; o < out; ++o) d.store(y, o, d.load(bias, o));
  d.structural_branches(out);

  for (std::size_t i = 0; i < in; ++i) {
    const auto v = d.load(x, i);
    auto row = [&] {
      for (std::size_t o = 0; o < out; ++o) {
        const auto w = d.load(weights, i * out + o);
        d.store(y, o, d.value(y, o) + v * w);
        d.retire(nn::detail::kMacInstructions + nn::detail::kLoopOverhead);
      }
      d.structural_branches(out + 1);
    };
    if (mode == KernelMode::kDataDependent) {
      // Sparse-GEMM row skip: a zero activation's whole weight row is
      // never touched and its inner loop never runs.
      d.guarded(
          kRowSkipSite, d.is_zero(v),
          [&] { d.retire(nn::detail::kLoopOverhead); }, row);
    } else {
      row();
    }
  }
  d.structural_branches(in);
}

}  // namespace

void dense_instrumented(const DenseShape& s, uarch::TraceSink& sink,
                        KernelMode mode) {
  with_static_sink(sink, [&](auto& to) {
    forward_kernel(ConcreteDomain(to), s.geom, s.in, s.weights, s.bias, s.out,
                   mode);
  });
}

void dense_instrumented(const DenseGeom& g, SymbolicExecutor& exec,
                        KernelMode mode) {
  const SymBuffer x = exec.input_buffer();
  const SymBuffer w =
      exec.param_buffer("weights", g.in_features * g.out_features);
  const SymBuffer b = exec.param_buffer("bias", g.out_features);
  const SymBuffer y = exec.output_buffer(g.out_features);
  forward_kernel(SymbolicDomain(exec), g, x, w, b, y, mode);
}

namespace {
const detail::KernelRegistration registration{
    {"dense", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "input-stationary scalar GEMV with sparse row skip, full trace"},
    {"dense", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "input-stationary scalar GEMV, every row streamed"},
};
}  // namespace

}  // namespace sce::nn::kernels
