// Fast Elman RNN: the same per-timestep phase structure with each AXPY
// sweep vectorized across the hidden dimension.
//
// The accumulator stays in memory (scratch), because the phase order is
// semantically load-bearing: every read of h_{t-1} in the Wh sweep must
// happen before the ReLU phase overwrites h.  Within a sweep, i advances
// in the scalar order and each acc[j] is touched once per non-skipped i,
// so vectorizing across j changes nothing about any accumulator's
// rounding sequence.  Row skips (x_t[i] == 0, h_{t-1}[i] == 0) stay real
// scalar branches, exactly like the scalar kernel and the Dense fast
// path.
#include <cstring>

#include "nn/kernels/registry.hpp"
#include "nn/kernels/rnn.hpp"
#include "nn/kernels/simd.hpp"
#include "nn/layer.hpp"

namespace sce::nn::kernels {

namespace {

/// acc[j] += v * row[j] for all j — one vector load/store pair per block.
inline void axpy(float* acc, float v, const float* row, std::size_t n) {
  std::size_t j = 0;
#ifdef SCE_HAVE_VECTOR_EXTENSIONS
  const v8f vv = broadcast(v);
  for (; j + kLanes <= n; j += kLanes)
    storeu(&acc[j], loadu(&acc[j]) + vv * loadu(&row[j]));
#endif
  for (; j < n; ++j) acc[j] = acc[j] + v * row[j];
}

}  // namespace

void rnn_fast(const RnnShape& s, KernelMode mode) {
  const RnnGeom& g = s.geom;
  const std::size_t hidden = g.hidden_dim;
  const bool skip_zero = mode == KernelMode::kDataDependent;

  for (std::size_t t = 0; t < g.t_steps; ++t) {
    std::memcpy(s.acc, s.bias, hidden * sizeof(float));
    const float* xt = &s.in[t * g.input_dim];
    for (std::size_t i = 0; i < g.input_dim; ++i) {
      const float v = xt[i];
      if (skip_zero && v == 0.0f) continue;
      axpy(s.acc, v, &s.wx[i * hidden], hidden);
    }
    for (std::size_t i = 0; i < hidden; ++i) {
      const float v = s.h[i];
      if (skip_zero && v == 0.0f) continue;
      axpy(s.acc, v, &s.wh[i * hidden], hidden);
    }
    // h = ReLU(acc): the same `v < 0 ? 0 : v` blend as the ReLU layer.
    std::size_t j = 0;
#ifdef SCE_HAVE_VECTOR_EXTENSIONS
    const v8f zero = broadcast(0.0f);
    for (; j + kLanes <= hidden; j += kLanes) {
      const v8f v = loadu(&s.acc[j]);
      storeu(&s.h[j], select(v < zero, zero, v));
    }
#endif
    for (; j < hidden; ++j) {
      const float v = s.acc[j];
      s.h[j] = v < 0.0f ? 0.0f : v;
    }
  }
}

namespace {
const detail::KernelRegistration registration{
    {"elman-rnn", KernelMode::kDataDependent, ExecutionPath::kFast,
     "vectorized AXPY sweeps, scalar row-skip branches kept, blend ReLU"},
    {"elman-rnn", KernelMode::kConstantFlow, ExecutionPath::kFast,
     "vectorized AXPY sweeps, every row streamed, blend ReLU"},
};
}  // namespace

}  // namespace sce::nn::kernels
