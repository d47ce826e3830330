// Fast Conv2D: transposed im2col + register-tiled GEMM, pinned
// bit-for-bit to the instrumented kernels.
//
// Both instrumented algorithms accumulate, per output element (oc, p):
//
//   acc = bias[oc]; then += v_j * w_j for j ascending over the patch
//   (j = (ic, ky, kx) flattened)
//
// with three policies for which j contribute:
//   * data-dependent (both algorithms): j with v_j != 0  — the zero-skip
//     keeps the accumulator bits unchanged (out-of-bounds patch entries
//     are zero, so the direct kernel's OOB skip coincides with it);
//   * constant-flow im2col: every j (padding zeros are added as 0 * w);
//   * constant-flow direct: in-bounds j only (padding positions are
//     never touched, so with padding > 0 a validity mask is required —
//     adding 0 * w instead would flip a -0.0 accumulator to +0.0).
//
// The fast kernel reproduces exactly that: the patch matrix is stored
// transposed (patch index major) so 8 consecutive *pixels* form one
// vector lane group, j advances sequentially — every lane's accumulation
// order equals the scalar kernel's — and skips are lane blends that keep
// the old accumulator bits.  Multiplies and adds stay separate (the
// library builds with -ffp-contract=off), so each step rounds exactly
// like the scalar `acc += v * w`.
#include <cstring>

#include "nn/conv.hpp"
#include "nn/kernels/conv2d.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/kernels/simd.hpp"

namespace sce::nn::kernels {

namespace {

/// Which j indices contribute to an output accumulator.
enum class Gemm { kDense, kSkipZero, kMaskValid };

/// Fill scratch 0 with the transposed patch matrix Pt[patch_len][pixels]
/// (out-of-bounds positions zero-filled, exactly the values the
/// instrumented im2col phase would store row-major).
void fill_patches_transposed(const Conv2DShape& s, float* pt,
                             std::size_t pixels) {
  const Conv2DGeom& g = s.geom;
  const bool contiguous = g.stride == 1 && g.padding == 0;
  std::size_t j = 0;
  for (std::size_t ic = 0; ic < g.in_channels; ++ic) {
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++j) {
        float* row = &pt[j * pixels];
        if (contiguous) {
          // Valid convolution, unit stride: each output row is a
          // contiguous slice of the input row.
          for (std::size_t oy = 0; oy < g.out_h; ++oy)
            std::memcpy(&row[oy * g.out_w],
                        &s.in[(ic * g.in_h + oy + ky) * g.in_w + kx],
                        g.out_w * sizeof(float));
          continue;
        }
        for (std::size_t oy = 0; oy < g.out_h; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.padding);
          float* out_row = &row[oy * g.out_w];
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) {
            for (std::size_t ox = 0; ox < g.out_w; ++ox) out_row[ox] = 0.0f;
            continue;
          }
          const float* in_row =
              &s.in[(ic * g.in_h + static_cast<std::size_t>(iy)) * g.in_w];
          for (std::size_t ox = 0; ox < g.out_w; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.padding);
            out_row[ox] =
                (ix >= 0 && ix < static_cast<std::ptrdiff_t>(g.in_w))
                    ? in_row[static_cast<std::size_t>(ix)]
                    : 0.0f;
          }
        }
      }
    }
  }
}

/// Validity mask Vt[kernel*kernel][pixels] (1.0 in-bounds, 0.0 padding),
/// shared across input channels.
void fill_validity(const Conv2DShape& s, float* vt, std::size_t pixels) {
  const Conv2DGeom& g = s.geom;
  std::size_t kk = 0;
  for (std::size_t ky = 0; ky < g.kernel; ++ky) {
    for (std::size_t kx = 0; kx < g.kernel; ++kx, ++kk) {
      float* row = &vt[kk * pixels];
      for (std::size_t oy = 0; oy < g.out_h; ++oy) {
        const std::ptrdiff_t iy =
            static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
            static_cast<std::ptrdiff_t>(g.padding);
        const bool y_ok =
            iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h);
        for (std::size_t ox = 0; ox < g.out_w; ++ox) {
          const std::ptrdiff_t ix =
              static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
              static_cast<std::ptrdiff_t>(g.padding);
          const bool ok =
              y_ok && ix >= 0 && ix < static_cast<std::ptrdiff_t>(g.in_w);
          row[oy * g.out_w + ox] = ok ? 1.0f : 0.0f;
        }
      }
    }
  }
}

/// GEMM over one output-channel tile of TC channels: 8 pixels per vector
/// step, TC accumulators live in registers across the whole j loop.
template <Gemm policy, std::size_t TC>
void gemm_tile(const Conv2DShape& s, const float* pt, const float* vt,
               std::size_t oc0, std::size_t pixels, std::size_t patch_len,
               std::size_t k2) {
  std::size_t p = 0;
#ifdef SCE_HAVE_VECTOR_EXTENSIONS
  for (; p + kLanes <= pixels; p += kLanes) {
    v8f acc[TC];
    for (std::size_t t = 0; t < TC; ++t) acc[t] = broadcast(s.bias[oc0 + t]);
    std::size_t kk = 0;
    for (std::size_t j = 0; j < patch_len; ++j) {
      const v8f v = loadu(&pt[j * pixels + p]);
      v8f valid{};
      if constexpr (policy == Gemm::kMaskValid)
        valid = loadu(&vt[kk * pixels + p]);
      for (std::size_t t = 0; t < TC; ++t) {
        const v8f w = broadcast(s.weights[(oc0 + t) * patch_len + j]);
        if constexpr (policy == Gemm::kDense)
          acc[t] = acc[t] + v * w;
        else if constexpr (policy == Gemm::kSkipZero)
          acc[t] = mac_skip_zero(acc[t], v, w);
        else
          acc[t] = mac_where(valid, acc[t], v, w);
      }
      if (++kk == k2) kk = 0;
    }
    for (std::size_t t = 0; t < TC; ++t)
      storeu(&s.out[(oc0 + t) * pixels + p], acc[t]);
  }
#endif
  // Pixel tail (and the whole range without vector extensions): the same
  // j-ordered accumulation, one scalar lane at a time.
  for (; p < pixels; ++p) {
    for (std::size_t t = 0; t < TC; ++t) {
      float acc = s.bias[oc0 + t];
      std::size_t kk = 0;
      for (std::size_t j = 0; j < patch_len; ++j) {
        const float v = pt[j * pixels + p];
        const float w = s.weights[(oc0 + t) * patch_len + j];
        if constexpr (policy == Gemm::kDense)
          acc = acc + v * w;
        else if constexpr (policy == Gemm::kSkipZero)
          acc = scalar_mac_skip_zero(acc, v, w);
        else
          acc = scalar_mac_where(vt[kk * pixels + p] != 0.0f, acc, v, w);
        if (++kk == k2) kk = 0;
      }
      s.out[(oc0 + t) * pixels + p] = acc;
    }
  }
}

template <Gemm policy>
void gemm(const Conv2DShape& s, const float* pt, const float* vt,
          std::size_t pixels, std::size_t patch_len, std::size_t k2) {
  const Conv2DGeom& g = s.geom;
  std::size_t oc0 = 0;
  for (; oc0 + 4 <= g.out_channels; oc0 += 4)
    gemm_tile<policy, 4>(s, pt, vt, oc0, pixels, patch_len, k2);
  switch (g.out_channels - oc0) {
    case 3:
      gemm_tile<policy, 3>(s, pt, vt, oc0, pixels, patch_len, k2);
      break;
    case 2:
      gemm_tile<policy, 2>(s, pt, vt, oc0, pixels, patch_len, k2);
      break;
    case 1:
      gemm_tile<policy, 1>(s, pt, vt, oc0, pixels, patch_len, k2);
      break;
    default:
      break;
  }
}

}  // namespace

void conv2d_fast(const Conv2DShape& s, Workspace& workspace,
                 ConvAlgorithm algorithm, KernelMode mode) {
  const Conv2DGeom& g = s.geom;
  const std::size_t pixels = g.out_h * g.out_w;
  const std::size_t patch_len = g.in_channels * g.kernel * g.kernel;
  const std::size_t k2 = g.kernel * g.kernel;
  if (pixels == 0 || patch_len == 0) return;

  // Same slot (and element count) as the instrumented im2col scratch,
  // transposed — a warmed plan switches paths without reallocating.
  Tensor& patches = workspace.scratch(0, patch_len, pixels);
  float* pt = patches.data();
  fill_patches_transposed(s, pt, pixels);

  if (mode == KernelMode::kDataDependent) {
    // Both algorithms skip exactly the zero patch entries (out-of-bounds
    // entries are zero, so the direct kernel's bounds skip is subsumed).
    gemm<Gemm::kSkipZero>(s, pt, nullptr, pixels, patch_len, k2);
    return;
  }
  if (algorithm == ConvAlgorithm::kDirect && g.padding > 0) {
    // Constant-flow direct never touches padding positions; mask them so
    // a -0.0 accumulator is not perturbed by adding +0.0.
    Tensor& validity = workspace.scratch(1, k2, pixels);
    float* vt = validity.data();
    fill_validity(s, vt, pixels);
    gemm<Gemm::kMaskValid>(s, pt, vt, pixels, patch_len, k2);
    return;
  }
  gemm<Gemm::kDense>(s, pt, nullptr, pixels, patch_len, k2);
}

namespace {
const detail::KernelRegistration registration{
    {"conv2d.direct", KernelMode::kDataDependent, ExecutionPath::kFast,
     "transposed im2col + 8x4 register-tiled GEMM, lane-blend zero skip"},
    {"conv2d.direct", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "transposed im2col + 8x4 register-tiled GEMM, validity-masked"},
    {"conv2d.im2col", KernelMode::kDataDependent, ExecutionPath::kFast,
     "transposed im2col + 8x4 register-tiled GEMM, lane-blend zero skip"},
    {"conv2d.im2col", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "transposed im2col + 8x4 register-tiled dense GEMM"},
};
}  // namespace

}  // namespace sce::nn::kernels
