// Elman RNN kernel family: h_t = ReLU(Wx x_t + Wh h_{t-1} + b), h_0 = 0.
//
// Each timestep is three phases over a memory-resident pre-activation
// accumulator `acc` (workspace scratch): bias init, two input-stationary
// AXPY sweeps (x_t against Wx, then h_{t-1} against Wh — all reads of h
// precede its rewrite), then a ReLU writing the new h.  The fast kernel
// keeps the phase structure and i order and vectorizes each AXPY across
// the hidden dimension, which preserves every acc[j]'s accumulation
// sequence exactly.
#pragma once

#include <cstddef>

#include "nn/kernels/execution_path.hpp"
#include "uarch/trace.hpp"

namespace sce::nn {
enum class KernelMode;
}

namespace sce::nn::kernels {

struct RnnGeom {
  std::size_t t_steps = 0;
  std::size_t input_dim = 0;
  std::size_t hidden_dim = 0;
};

/// `h` is the caller's output tensor, pre-zeroed (h_0 = 0); `acc` is
/// scratch of hidden_dim floats.  Weights: wx {input_dim, hidden},
/// wh {hidden, hidden}, both input-stationary rows.
struct RnnShape {
  RnnGeom geom;
  const float* in = nullptr;
  const float* wx = nullptr;
  const float* wh = nullptr;
  const float* bias = nullptr;
  float* h = nullptr;
  float* acc = nullptr;
};

void rnn_instrumented(const RnnShape& s, uarch::TraceSink& sink,
                      KernelMode mode);
/// Vectorized AXPY sweeps; the data-dependent row skip stays a real
/// scalar branch (as in Dense).
void rnn_fast(const RnnShape& s, KernelMode mode);

}  // namespace sce::nn::kernels
