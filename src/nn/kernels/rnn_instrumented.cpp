// Instrumented Elman RNN kernel, written once over an execution domain
// (domain.hpp) and instantiated for sinks and for the symbolic verifier.
#include "nn/kernels/domain.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/kernels/rnn.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

constexpr KernelSite kInputSkipSite =
    SCE_KERNEL_SITE("rnn input row-skip (x_t[i]==0)");
constexpr KernelSite kHiddenSkipSite =
    SCE_KERNEL_SITE("rnn hidden row-skip (h[i]==0, ReLU-sparse)");
constexpr KernelSite kReluSite =
    SCE_KERNEL_SITE("rnn recurrent ReLU sign branch");

template <typename D, typename In, typename Out>
void forward_kernel(D d, const RnnGeom& g, In x, In wx, In wh, In bias, Out h,
                    Out acc, KernelMode mode) {
  const std::size_t hidden_dim = g.hidden_dim;
  const auto zero = d.constant(0.0f);

  // acc += W^T v over `dim` rows of `weights`, input-stationary with
  // zero-skipping rows; `v_at(i)` performs the traced read of v[i].
  auto axpy_sweep = [&](const KernelSite& site, auto v_at, std::size_t dim,
                        In weights) {
    for (std::size_t i = 0; i < dim; ++i) {
      const auto v = v_at(i);
      auto row = [&] {
        for (std::size_t j = 0; j < hidden_dim; ++j) {
          const auto w = d.load(weights, i * hidden_dim + j);
          d.store(acc, j, d.value(acc, j) + v * w);
          d.retire(nn::detail::kMacInstructions + nn::detail::kLoopOverhead);
        }
        d.structural_branches(hidden_dim + 1);
      };
      if (mode == KernelMode::kDataDependent) {
        d.guarded(
            site, d.is_zero(v), [&] { d.retire(nn::detail::kLoopOverhead); },
            row);
      } else {
        row();
      }
    }
    d.structural_branches(dim);
  };

  for (std::size_t t = 0; t < g.t_steps; ++t) {
    // acc = b
    for (std::size_t j = 0; j < hidden_dim; ++j)
      d.store(acc, j, d.load(bias, j));
    d.structural_branches(hidden_dim);
    // acc += Wx^T x_t
    axpy_sweep(
        kInputSkipSite,
        [&](std::size_t i) { return d.load(x, t * g.input_dim + i); },
        g.input_dim, wx);
    // acc += Wh^T h_{t-1}: ReLU-sparse hidden state skips its rows too.
    axpy_sweep(
        kHiddenSkipSite, [&](std::size_t i) { return d.load(h, i); },
        hidden_dim, wh);
    // h = ReLU(acc)
    for (std::size_t j = 0; j < hidden_dim; ++j) {
      const auto v = d.load(acc, j);
      const auto negative = d.is_negative(v);
      if (mode == KernelMode::kDataDependent) {
        d.branch(kReluSite, negative);
        d.retire(nn::detail::kLoopOverhead);
      } else {
        d.retire(nn::detail::kLoopOverhead + 1);
      }
      d.store(h, j, d.select(negative, zero, v));
    }
    d.structural_branches(hidden_dim + 1);
  }
}

}  // namespace

void rnn_instrumented(const RnnShape& s, uarch::TraceSink& sink,
                      KernelMode mode) {
  with_static_sink(sink, [&](auto& to) {
    forward_kernel(ConcreteDomain(to), s.geom, s.in, s.wx, s.wh, s.bias, s.h,
                   s.acc, mode);
  });
}

void rnn_instrumented(const RnnGeom& g, SymbolicExecutor& exec,
                      KernelMode mode) {
  const std::size_t hidden = g.hidden_dim;
  const SymBuffer x = exec.input_buffer();
  const SymBuffer wx = exec.param_buffer("wx", g.input_dim * hidden);
  const SymBuffer wh = exec.param_buffer("wh", hidden * hidden);
  const SymBuffer b = exec.param_buffer("bias", hidden);
  const SymBuffer h = exec.output_buffer(hidden);  // pre-zeroed h_0
  const SymBuffer acc = exec.scratch_buffer("acc", hidden);
  forward_kernel(SymbolicDomain(exec), g, x, wx, wh, b, h, acc, mode);
}

namespace {
const detail::KernelRegistration registration{
    {"elman-rnn", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "per-step scalar AXPY sweeps with row skips + ReLU branch, full trace"},
    {"elman-rnn", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "per-step scalar AXPY sweeps, every row streamed, branchless ReLU"},
};
}  // namespace

}  // namespace sce::nn::kernels
