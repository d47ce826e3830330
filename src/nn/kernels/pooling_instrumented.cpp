// Instrumented pooling kernels, written once over an execution domain
// (domain.hpp) and instantiated for sinks and for the symbolic verifier.
#include "nn/kernels/pooling.hpp"

#include "nn/kernels/domain.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

constexpr KernelSite kMaxUpdateSite =
    SCE_KERNEL_SITE("maxpool max-update branch");

template <typename D, typename In, typename Out>
void maxpool_kernel(D d, const Pool2DGeom& g, In in, Out out,
                    KernelMode mode) {
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      for (std::size_t ox = 0; ox < g.out_w; ++ox) {
        typename D::Value best = d.constant(0.0f);
        bool first = true;  // a loop-position flag: public
        for (std::size_t wy = 0; wy < g.window; ++wy) {
          for (std::size_t wx = 0; wx < g.window; ++wx) {
            const std::size_t idx =
                (c * g.in_h + (oy * g.window + wy)) * g.in_w +
                (ox * g.window + wx);
            const auto v = d.load(in, idx);
            if (first) {
              best = v;
              first = false;
              d.retire(nn::detail::kLoopOverhead);
              continue;
            }
            const auto update = d.greater(v, best);
            if (mode == KernelMode::kDataDependent) {
              // Which window element is the max depends on the data; the
              // update is a real conditional branch guarding only a
              // register move, so memory and counts stay fixed.
              d.branch(kMaxUpdateSite, update);
              best = d.select(update, v, best);
              d.retire(nn::detail::kCompareInstructions);
            } else {
              // Branchless max (cmov / maxss).
              best = d.select(update, v, best);
              d.retire(nn::detail::kCompareInstructions + 1);
            }
          }
        }
        d.store(out, (c * g.out_h + oy) * g.out_w + ox, best);
        d.structural_branches(g.window * g.window + g.window + 1);
      }
    }
  }
}

template <typename D, typename In, typename Out>
void avgpool_kernel(D d, const Pool2DGeom& g, In in, Out out) {
  const auto inv_area =
      d.constant(1.0f / static_cast<float>(g.window * g.window));

  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      for (std::size_t ox = 0; ox < g.out_w; ++ox) {
        typename D::Value sum = d.constant(0.0f);
        for (std::size_t wy = 0; wy < g.window; ++wy) {
          for (std::size_t wx = 0; wx < g.window; ++wx) {
            const std::size_t idx =
                (c * g.in_h + (oy * g.window + wy)) * g.in_w +
                (ox * g.window + wx);
            sum = sum + d.load(in, idx);
            d.retire(nn::detail::kLoopOverhead + 1);
          }
        }
        d.store(out, (c * g.out_h + oy) * g.out_w + ox, sum * inv_area);
        d.retire(1);
        d.structural_branches(g.window * g.window + g.window + 1);
      }
    }
  }
}

}  // namespace

void maxpool2d_instrumented(const Pool2DShape& s, uarch::TraceSink& sink,
                            KernelMode mode) {
  with_static_sink(sink, [&](auto& to) {
    maxpool_kernel(ConcreteDomain(to), s.geom, s.in, s.out, mode);
  });
}

void maxpool2d_instrumented(const Pool2DGeom& g, SymbolicExecutor& exec,
                            KernelMode mode) {
  const SymBuffer in = exec.input_buffer();
  const SymBuffer out = exec.output_buffer(g.channels * g.out_h * g.out_w);
  maxpool_kernel(SymbolicDomain(exec), g, in, out, mode);
}

void avgpool2d_instrumented(const Pool2DShape& s, uarch::TraceSink& sink) {
  with_static_sink(sink, [&](auto& to) {
    avgpool_kernel(ConcreteDomain(to), s.geom, s.in, s.out);
  });
}

void avgpool2d_instrumented(const Pool2DGeom& g, SymbolicExecutor& exec) {
  const SymBuffer in = exec.input_buffer();
  const SymBuffer out = exec.output_buffer(g.channels * g.out_h * g.out_w);
  avgpool_kernel(SymbolicDomain(exec), g, in, out);
}

namespace {
const detail::KernelRegistration registration{
    {"maxpool2d", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "windowed scan, per-element max-update branch traced"},
    {"maxpool2d", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "windowed scan, branchless max with fixed cost"},
    {"avgpool2d", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "windowed sum; data-independent by nature, modes identical"},
    {"avgpool2d", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "windowed sum; data-independent by nature, modes identical"},
};
}  // namespace

}  // namespace sce::nn::kernels
