// Dense (fully connected) kernel family.
//
// The instrumented kernel is input-stationary: weights are {in, out}, the
// output vector is the accumulator, and each input activation streams its
// weight row into it (in data-dependent mode a zero activation skips its
// whole row — the sparse-GEMM optimization that makes this layer the
// strongest leak source).  The fast kernel keeps the exact accumulation
// order (i ascending per output) and vectorizes across outputs, holding
// register tiles of the output vector across the whole input loop.
#pragma once

#include <cstddef>

#include "nn/kernels/execution_path.hpp"
#include "uarch/trace.hpp"

namespace sce::nn {
enum class KernelMode;
}

namespace sce::nn::kernels {

struct DenseGeom {
  std::size_t in_features = 0;
  std::size_t out_features = 0;
};

/// Weights are {in_features, out_features} flattened (each input owns a
/// contiguous row); input is a flat vector of in_features.
struct DenseShape {
  DenseGeom geom;
  const float* in = nullptr;
  const float* weights = nullptr;
  const float* bias = nullptr;
  float* out = nullptr;
};

/// The scalar kernel; with a discarding sink (NullSink) it is the scalar
/// baseline, every trace call compiled away (kernels/domain.hpp).
void dense_instrumented(const DenseShape& s, uarch::TraceSink& sink,
                        KernelMode mode);

/// Fast path: register-blocked input-stationary GEMV, bit-identical to
/// the instrumented kernel in both modes.  Note the data-dependent row
/// skip remains a real (scalar, per-input) branch here.
void dense_fast(const DenseShape& s, KernelMode mode);

}  // namespace sce::nn::kernels
