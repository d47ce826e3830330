// Fast pooling: the scalar recurrences with no trace machinery.  The
// window gather is strided (no contiguous lanes to load) and pooling is
// noise next to conv/dense, so there is nothing to vectorize profitably;
// the win over the instrumented path is simply a tight loop the compiler
// can schedule freely.  Element order is preserved exactly (wy-major,
// wx), so max ties (-0.0 vs +0.0, NaN propagation) and the average's
// accumulation order match the instrumented kernels bit for bit.
#include "nn/kernels/pooling.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {

void maxpool2d_fast(const Pool2DShape& s) {
  const Pool2DGeom& g = s.geom;
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      for (std::size_t ox = 0; ox < g.out_w; ++ox) {
        const std::size_t base =
            (c * g.in_h + oy * g.window) * g.in_w + ox * g.window;
        float best = s.in[base];
        for (std::size_t wy = 0; wy < g.window; ++wy) {
          const float* row = &s.in[base + wy * g.in_w];
          for (std::size_t wx = wy == 0 ? 1 : 0; wx < g.window; ++wx) {
            const float v = row[wx];
            best = v > best ? v : best;
          }
        }
        s.out[(c * g.out_h + oy) * g.out_w + ox] = best;
      }
    }
  }
}

void avgpool2d_fast(const Pool2DShape& s) {
  const Pool2DGeom& g = s.geom;
  const float inv_area = 1.0f / static_cast<float>(g.window * g.window);
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      for (std::size_t ox = 0; ox < g.out_w; ++ox) {
        const std::size_t base =
            (c * g.in_h + oy * g.window) * g.in_w + ox * g.window;
        float sum = 0.0f;
        for (std::size_t wy = 0; wy < g.window; ++wy) {
          const float* row = &s.in[base + wy * g.in_w];
          for (std::size_t wx = 0; wx < g.window; ++wx) sum += row[wx];
        }
        s.out[(c * g.out_h + oy) * g.out_w + ox] = sum * inv_area;
      }
    }
  }
}

namespace {
const detail::KernelRegistration registration{
    {"maxpool2d", KernelMode::kDataDependent, ExecutionPath::kFast,
     "scalar windowed max, branchless cmov, trace-free"},
    {"maxpool2d", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "scalar windowed max, branchless cmov, trace-free"},
    {"avgpool2d", KernelMode::kDataDependent, ExecutionPath::kFast,
     "scalar windowed sum, trace-free"},
    {"avgpool2d", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "scalar windowed sum, trace-free"},
};
}  // namespace

}  // namespace sce::nn::kernels
