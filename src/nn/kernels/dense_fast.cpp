// Fast Dense: register-blocked input-stationary GEMV.
//
// The instrumented kernel accumulates y[o] = bias[o] then, for i
// ascending, y[o] += x[i] * W[i][o] (skipping the whole row i when
// x[i] == 0 in data-dependent mode).  Each output is an independent
// accumulator, so vectorizing across o with i kept sequential preserves
// every output's rounding sequence exactly.  A tile of the output vector
// lives in registers across the entire input loop; the weight row slice
// is one contiguous vector load per tile vector.
//
// The data-dependent row skip stays a real branch: it elides the row's
// weight loads entirely, exactly like the scalar kernel, and skipping
// contributes nothing to any accumulator so the bits cannot differ.
#include "nn/kernels/dense.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/kernels/simd.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {

namespace {

#ifdef SCE_HAVE_VECTOR_EXTENSIONS
/// One tile of NV vectors (NV * kLanes outputs) starting at o0.
template <std::size_t NV>
void gemv_tile(const DenseShape& s, std::size_t o0, bool skip_zero) {
  const DenseGeom& g = s.geom;
  v8f acc[NV];
  for (std::size_t t = 0; t < NV; ++t)
    acc[t] = loadu(&s.bias[o0 + t * kLanes]);
  // Two input rows per iteration: each row's contribution still lands in
  // ascending-i order per accumulator, so the rounding sequence — and
  // the bits — match the one-row-at-a-time instrumented loop exactly.
  std::size_t i = 0;
  for (; i + 2 <= g.in_features; i += 2) {
    const float v0 = s.in[i];
    const float v1 = s.in[i + 1];
    const float* row0 = &s.weights[i * g.out_features + o0];
    // Hide the upcoming rows' memory latency behind this pair's
    // arithmetic; prefetching a row that ends up skipped is harmless.
    if (i + 4 < g.in_features)
      __builtin_prefetch(&s.weights[(i + 4) * g.out_features + o0]);
    if (!(skip_zero && v0 == 0.0f)) {
      const v8f vv = broadcast(v0);
      for (std::size_t t = 0; t < NV; ++t)
        acc[t] = acc[t] + vv * loadu(&row0[t * kLanes]);
    }
    if (!(skip_zero && v1 == 0.0f)) {
      const v8f vv = broadcast(v1);
      const float* row1 = row0 + g.out_features;
      for (std::size_t t = 0; t < NV; ++t)
        acc[t] = acc[t] + vv * loadu(&row1[t * kLanes]);
    }
  }
  for (; i < g.in_features; ++i) {
    const float v = s.in[i];
    if (skip_zero && v == 0.0f) continue;
    const v8f vv = broadcast(v);
    const float* row = &s.weights[i * g.out_features + o0];
    for (std::size_t t = 0; t < NV; ++t)
      acc[t] = acc[t] + vv * loadu(&row[t * kLanes]);
  }
  for (std::size_t t = 0; t < NV; ++t)
    storeu(&s.out[o0 + t * kLanes], acc[t]);
}
#endif

}  // namespace

void dense_fast(const DenseShape& s, KernelMode mode) {
  const DenseGeom& g = s.geom;
  const bool skip_zero = mode == KernelMode::kDataDependent;
  std::size_t o0 = 0;
#ifdef SCE_HAVE_VECTOR_EXTENSIONS
  // Widest tile first: each tile re-streams the whole input vector, so a
  // wider tile amortizes the per-input broadcast and row-skip check over
  // more outputs (8 vector accumulators still fit the 16 ymm registers).
  for (; o0 + 8 * kLanes <= g.out_features; o0 += 8 * kLanes)
    gemv_tile<8>(s, o0, skip_zero);
  for (; o0 + 4 * kLanes <= g.out_features; o0 += 4 * kLanes)
    gemv_tile<4>(s, o0, skip_zero);
  for (; o0 + kLanes <= g.out_features; o0 += kLanes)
    gemv_tile<1>(s, o0, skip_zero);
#endif
  for (; o0 < g.out_features; ++o0) {
    float acc = s.bias[o0];
    for (std::size_t i = 0; i < g.in_features; ++i) {
      const float v = s.in[i];
      if (skip_zero && v == 0.0f) continue;
      acc = acc + v * s.weights[i * g.out_features + o0];
    }
    s.out[o0] = acc;
  }
}

namespace {
const detail::KernelRegistration registration{
    {"dense", KernelMode::kDataDependent, ExecutionPath::kFast,
     "register-blocked GEMV, scalar per-input row-skip branch kept"},
    {"dense", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "register-blocked GEMV, every row streamed"},
};
}  // namespace

}  // namespace sce::nn::kernels
