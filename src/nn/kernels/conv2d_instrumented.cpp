// Instrumented Conv2D kernels — the leakage ground truth.
//
// Every sink event (loads, the zero-skip branch, retire bookkeeping,
// structural back-edges) and the loop order are pinned by the golden
// event-stream test and the oracle cross-check.  Each kernel is one
// template over an execution domain (domain.hpp): the concrete
// instantiations over a TraceSink, the SimulatorSink and a DiscardSink
// (the scalar path the fast kernels are measured against) serve the
// sinks, and the SymbolicDomain instantiation is what the verifier
// analyzes.
#include "nn/kernels/conv2d.hpp"

#include "nn/kernels/domain.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {
namespace {

constexpr KernelSite kZeroSkipSite =
    SCE_KERNEL_SITE("conv2d zero-skip (elides weight load + MAC)");
constexpr KernelSite kGemmSkipSite =
    SCE_KERNEL_SITE("conv2d im2col GEMM zero-skip");

template <typename D, typename In, typename Out>
void forward_direct(D d, const Conv2DGeom& g, In in, In weights, In bias,
                    Out out, KernelMode mode) {
  for (std::size_t oc = 0; oc < g.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      for (std::size_t ox = 0; ox < g.out_w; ++ox) {
        auto acc = d.load(bias, oc);
        for (std::size_t ic = 0; ic < g.in_channels; ++ic) {
          for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                static_cast<std::ptrdiff_t>(g.padding);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
            const std::size_t in_row_base =
                (ic * g.in_h + static_cast<std::size_t>(iy)) * g.in_w;
            const std::size_t w_row_base =
                ((oc * g.in_channels + ic) * g.kernel + ky) * g.kernel;
            for (std::size_t kx = 0; kx < g.kernel; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                  static_cast<std::ptrdiff_t>(g.padding);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w))
                continue;  // implicit zero padding: nothing loaded
              const auto v =
                  d.load(in, in_row_base + static_cast<std::size_t>(ix));
              auto mac = [&] {
                const auto w = d.load(weights, w_row_base + kx);
                acc = acc + v * w;
                d.retire(nn::detail::kMacInstructions +
                         nn::detail::kLoopOverhead);
              };
              if (mode == KernelMode::kDataDependent) {
                // Zero-skipping: a zero activation contributes nothing, so
                // the weight load and MAC are elided behind a branch.
                d.guarded(
                    kZeroSkipSite, d.is_zero(v),
                    [&] { d.retire(nn::detail::kLoopOverhead); }, mac);
              } else {
                mac();
              }
            }
          }
        }
        d.store(out, (oc * g.out_h + oy) * g.out_w + ox, acc);
        d.retire(nn::detail::kLoopOverhead);
        // Loop back-edges for the kx/ky/ic loops of this output pixel.
        d.structural_branches(g.in_channels * g.kernel * g.kernel +
                              g.in_channels * g.kernel + g.in_channels + 1);
      }
    }
  }
}

/// `patches` is the {pixels, patch_len} im2col matrix (workspace
/// scratch): every element is written in phase 1 before phase 2 reads it.
template <typename D, typename In, typename Out>
void forward_im2col(D d, const Conv2DGeom& g, In in, In weights, In bias,
                    Out patches, Out out, KernelMode mode) {
  const std::size_t pixels = g.out_h * g.out_w;
  const std::size_t patch_len = g.in_channels * g.kernel * g.kernel;

  // Phase 1: materialize the patch matrix.  Every input element inside a
  // window is loaded and stored once per window it appears in — the
  // extra memory traffic that distinguishes this strategy from the
  // direct loop nest.
  for (std::size_t oy = 0; oy < g.out_h; ++oy) {
    for (std::size_t ox = 0; ox < g.out_w; ++ox) {
      const std::size_t row = oy * g.out_w + ox;
      std::size_t column = 0;
      for (std::size_t ic = 0; ic < g.in_channels; ++ic) {
        for (std::size_t ky = 0; ky < g.kernel; ++ky) {
          for (std::size_t kx = 0; kx < g.kernel; ++kx, ++column) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                static_cast<std::ptrdiff_t>(g.padding);
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.padding);
            typename D::Value v = d.constant(0.0f);
            if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h) &&
                ix >= 0 && ix < static_cast<std::ptrdiff_t>(g.in_w)) {
              v = d.load(in, (ic * g.in_h + static_cast<std::size_t>(iy)) *
                                     g.in_w +
                                 static_cast<std::size_t>(ix));
            }
            d.store(patches, row * patch_len + column, v);
            d.retire(nn::detail::kLoopOverhead);
          }
        }
      }
      d.structural_branches(patch_len + g.kernel + g.in_channels + 1);
    }
  }

  // Phase 2: GEMM — output[oc][pixel] = bias[oc] + W[oc][:] . P[pixel][:].
  // Weight rows are exactly the {out, in, k, k} layout flattened.
  for (std::size_t oc = 0; oc < g.out_channels; ++oc) {
    for (std::size_t pixel = 0; pixel < pixels; ++pixel) {
      auto acc = d.load(bias, oc);
      for (std::size_t j = 0; j < patch_len; ++j) {
        const auto v = d.load(patches, pixel * patch_len + j);
        auto mac = [&] {
          acc = acc + v * d.load(weights, oc * patch_len + j);
          d.retire(nn::detail::kMacInstructions + nn::detail::kLoopOverhead);
        };
        if (mode == KernelMode::kDataDependent) {
          d.guarded(
              kGemmSkipSite, d.is_zero(v),
              [&] { d.retire(nn::detail::kLoopOverhead); }, mac);
        } else {
          mac();
        }
      }
      d.store(out, oc * pixels + pixel, acc);
      d.structural_branches(patch_len + 1);
    }
  }
}

}  // namespace

void conv2d_direct_instrumented(const Conv2DShape& s, uarch::TraceSink& sink,
                                KernelMode mode) {
  with_static_sink(sink, [&](auto& to) {
    forward_direct(ConcreteDomain(to), s.geom, s.in, s.weights, s.bias, s.out,
                   mode);
  });
}

void conv2d_im2col_instrumented(const Conv2DShape& s, Workspace& workspace,
                                uarch::TraceSink& sink, KernelMode mode) {
  const Conv2DGeom& g = s.geom;
  float* patches =
      workspace
          .scratch(0, g.out_h * g.out_w, g.in_channels * g.kernel * g.kernel)
          .data();
  with_static_sink(sink, [&](auto& to) {
    forward_im2col(ConcreteDomain(to), g, s.in, s.weights, s.bias, patches,
                   s.out, mode);
  });
}

void conv2d_direct_instrumented(const Conv2DGeom& g, SymbolicExecutor& exec,
                                KernelMode mode) {
  const SymBuffer in = exec.input_buffer();
  const SymBuffer w = exec.param_buffer(
      "weights", g.out_channels * g.in_channels * g.kernel * g.kernel);
  const SymBuffer b = exec.param_buffer("bias", g.out_channels);
  const SymBuffer out = exec.output_buffer(g.out_channels * g.out_h * g.out_w);
  forward_direct(SymbolicDomain(exec), g, in, w, b, out, mode);
}

void conv2d_im2col_instrumented(const Conv2DGeom& g, SymbolicExecutor& exec,
                                KernelMode mode) {
  const std::size_t pixels = g.out_h * g.out_w;
  const std::size_t patch_len = g.in_channels * g.kernel * g.kernel;
  const SymBuffer in = exec.input_buffer();
  const SymBuffer w = exec.param_buffer("weights", g.out_channels * patch_len);
  const SymBuffer b = exec.param_buffer("bias", g.out_channels);
  const SymBuffer patches = exec.scratch_buffer("patches", pixels * patch_len);
  const SymBuffer out = exec.output_buffer(g.out_channels * pixels);
  forward_im2col(SymbolicDomain(exec), g, in, w, b, patches, out, mode);
}

namespace {
const detail::KernelRegistration registration{
    {"conv2d.direct", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "scalar loop nest, zero-skip branch per element, full trace"},
    {"conv2d.direct", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "scalar loop nest, every in-bounds element does full work"},
    {"conv2d.im2col", KernelMode::kDataDependent, ExecutionPath::kInstrumented,
     "patch-matrix gather + scalar GEMM with zero-skip branch"},
    {"conv2d.im2col", KernelMode::kConstantFlow, ExecutionPath::kInstrumented,
     "patch-matrix gather + dense scalar GEMM"},
};
}  // namespace

}  // namespace sce::nn::kernels
