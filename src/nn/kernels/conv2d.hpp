// Conv2D kernel family: (algorithm × KernelMode × ExecutionPath).
//
// The instrumented implementations are the leakage ground truth: the
// trace oracle cross-validates their sink events and the symbolic
// verifier derives contracts from the same templates, so their structure
// (loop order, per-event formulas, branch sites) is pinned by golden
// event-stream digests.  The fast implementation lowers both algorithms
// onto one transposed-im2col + register-tiled GEMM whose per-output
// accumulation order is pinned to the instrumented loops (see
// conv2d_fast.cpp).
#pragma once

#include <cstddef>

#include "nn/kernels/execution_path.hpp"
#include "nn/workspace.hpp"
#include "uarch/trace.hpp"

namespace sce::nn {
enum class KernelMode;
enum class ConvAlgorithm;
}

namespace sce::nn::kernels {

/// Square kernel, stride and implicit zero padding; output dims are
/// (in + 2 * padding - kernel) / stride + 1.
struct Conv2DGeom {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 0;
  std::size_t stride = 0;
  std::size_t padding = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t out_h = 0;
  std::size_t out_w = 0;
};

/// Everything a convolution kernel needs, precomputed by the layer.
/// Weights are {out_channels, in_channels, kernel, kernel} flattened;
/// input is CHW; output is {out_channels, out_h, out_w}.
struct Conv2DShape {
  Conv2DGeom geom;
  const float* in = nullptr;
  const float* weights = nullptr;
  const float* bias = nullptr;
  float* out = nullptr;
};

/// Instrumented direct loop nest.  With a discarding sink (NullSink) the
/// trace calls compile away and the scalar loop structure stays intact:
/// the scalar baseline path (kernels/domain.hpp picks the instantiation).
void conv2d_direct_instrumented(const Conv2DShape& s, uarch::TraceSink& sink,
                                KernelMode mode);

/// Instrumented im2col + GEMM (patch matrix in workspace scratch 0).
void conv2d_im2col_instrumented(const Conv2DShape& s, Workspace& workspace,
                                uarch::TraceSink& sink, KernelMode mode);

/// Fast path: transposed im2col + 8-pixel × 4-output-channel register
/// tiled GEMM, bit-identical to the instrumented kernel for the given
/// `algorithm` and `mode` (scratch 0: transposed patches; scratch 1:
/// validity mask, only touched for direct/constant-flow with padding).
void conv2d_fast(const Conv2DShape& s, Workspace& workspace,
                 ConvAlgorithm algorithm, KernelMode mode);

}  // namespace sce::nn::kernels
