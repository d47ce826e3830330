// Pooling kernel family: MaxPool2D and AvgPool2D over non-overlapping
// square windows (stride == window, trailing remainder dropped).
//
// Window elements are gathered at stride `window` per output pixel, which
// defeats contiguous vector loads, and pooling is a vanishing fraction of
// inference cost next to conv/dense — so the fast kernels are the scalar
// recurrences with the trace machinery compiled out, kept bit-identical
// by construction (same element order, same compare/accumulate ops).
#pragma once

#include <cstddef>

#include "nn/kernels/execution_path.hpp"
#include "uarch/trace.hpp"

namespace sce::nn {
enum class KernelMode;
}

namespace sce::nn::kernels {

/// Input is CHW; output is {channels, out_h, out_w} with
/// out_h = in_h / window, out_w = in_w / window.
struct Pool2DGeom {
  std::size_t channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t out_h = 0;
  std::size_t out_w = 0;
  std::size_t window = 0;
};

inline Pool2DGeom pool2d_geom(std::size_t channels, std::size_t in_h,
                              std::size_t in_w, std::size_t window) {
  return {channels, in_h, in_w, in_h / window, in_w / window, window};
}

struct Pool2DShape {
  Pool2DGeom geom;
  const float* in = nullptr;
  float* out = nullptr;
};

void maxpool2d_instrumented(const Pool2DShape& s, uarch::TraceSink& sink,
                            KernelMode mode);
void maxpool2d_fast(const Pool2DShape& s);

/// AvgPool has no data-dependent behaviour in either mode; the mode
/// parameter is deliberately absent.
void avgpool2d_instrumented(const Pool2DShape& s, uarch::TraceSink& sink);
void avgpool2d_fast(const Pool2DShape& s);

}  // namespace sce::nn::kernels
