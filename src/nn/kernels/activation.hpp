// ReLU kernel family.  Both kernel modes compute `v < 0 ? 0 : v`
// elementwise; they differ only in how the instrumented kernel reports
// the sign test (a real branch event in data-dependent mode, a fixed
// branchless cost in constant-flow).  The fast kernel is one vector
// blend per lane group — bit-identical including -0.0 (kept: -0.0 < 0 is
// false) and NaN (kept: comparisons with NaN are false).
#pragma once

#include <cstddef>

#include "nn/kernels/execution_path.hpp"
#include "uarch/trace.hpp"

namespace sce::nn {
enum class KernelMode;
}

namespace sce::nn::kernels {

void relu_instrumented(const float* in, float* out, std::size_t n,
                       uarch::TraceSink& sink, KernelMode mode);
void relu_fast(const float* in, float* out, std::size_t n);

}  // namespace sce::nn::kernels
