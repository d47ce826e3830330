// Custom layers exercising the analyzer's edge cases: a deliberately
// leaky kernel (with an honest or a lying symbolic model), a sanitizing
// layer that clears secret taint, a layer that draws masking randomness,
// and a layer with no symbolic model at all.
#pragma once

#include <algorithm>
#include <vector>

#include "nn/kernels/domain.hpp"
#include "nn/kernels/symbolic.hpp"
#include "nn/layer.hpp"

namespace sce::analysis::testing {

inline std::size_t numel_of(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

/// The sign test of LeakyProbeLayer, named once for both domains.
inline constexpr nn::kernels::KernelSite kLeakyProbeSite =
    SCE_KERNEL_SITE("leaky-probe sign test");

/// Identity layer whose kernel takes one real branch per element on the
/// sign of the activation — a deliberately leaky custom kernel.  The
/// symbolic model is honest by default; construct with
/// `lie_constant = true` for a model that reports the branch on a public
/// predicate, so the derived contract claims constant flow and only the
/// trace oracle can catch the lie.
class LeakyProbeLayer final : public nn::Layer {
 public:
  explicit LeakyProbeLayer(bool lie_constant = false)
      : lie_constant_(lie_constant) {}

  std::string name() const override { return "leaky-probe"; }

  using nn::Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace& /*workspace*/, uarch::TraceSink& sink,
                    nn::KernelMode /*mode*/,
                    nn::ExecutionPath /*path*/) const override {
    if (!output.same_shape(input)) output.resize(input.shape());
    const float* in = input.data();
    float* out = output.data();
    for (std::size_t i = 0; i < input.numel(); ++i) {
      sink.load(&in[i], sizeof(float));
      // Leaks in *both* kernel modes.
      sink.branch(kLeakyProbeSite.pc(), in[i] > 0.0f);
      out[i] = in[i];
      sink.store(&out[i], sizeof(float));
    }
  }

  void symbolic_forward(nn::kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        nn::KernelMode /*mode*/,
                        nn::ExecutionPath /*path*/) const override {
    const std::size_t n = numel_of(input_shape);
    const nn::kernels::SymBuffer in = exec.input_buffer();
    const nn::kernels::SymBuffer out = exec.output_buffer(n);
    for (std::size_t i = 0; i < n; ++i) {
      const nn::kernels::SymValue v = exec.load(in, i);
      exec.branch(kLeakyProbeSite.sym,
                  lie_constant_ ? nn::kernels::SymValue{} : v);
      exec.store(out, i, v);
    }
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }

 private:
  bool lie_constant_;
};

/// Constant-output layer: traceless, and its output carries no secret.
/// Its model's unconditional assigns of public values are strong
/// updates, so the output buffer ends fully public, the engine derives
/// TaintTransfer::kSanitize, and downstream leaky kernels become
/// unexploitable.
class SanitizingLayer final : public nn::Layer {
 public:
  std::string name() const override { return "sanitizer"; }

  using nn::Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace& /*workspace*/, uarch::TraceSink& /*sink*/,
                    nn::KernelMode /*mode*/,
                    nn::ExecutionPath /*path*/) const override {
    if (!output.same_shape(input)) output.resize(input.shape());
    std::fill(output.data(), output.data() + output.numel(), 0.5f);
  }

  void symbolic_forward(nn::kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        nn::KernelMode /*mode*/,
                        nn::ExecutionPath /*path*/) const override {
    const std::size_t n = numel_of(input_shape);
    (void)exec.input_buffer();
    const nn::kernels::SymBuffer out = exec.output_buffer(n);
    for (std::size_t i = 0; i < n; ++i)
      exec.assign(out, i, nn::kernels::SymValue{});  // public constant
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }
};

/// Identity layer whose kernel draws masking randomness: the model calls
/// rng_draw, so the engine derives consumes_rng with an "rng" witness,
/// and no input-dependent aspect.
class RngMaskLayer final : public nn::Layer {
 public:
  std::string name() const override { return "rng-mask"; }

  using nn::Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace& /*workspace*/, uarch::TraceSink& /*sink*/,
                    nn::KernelMode /*mode*/,
                    nn::ExecutionPath /*path*/) const override {
    if (!output.same_shape(input)) output.resize(input.shape());
    std::copy(input.data(), input.data() + input.numel(), output.data());
  }

  void symbolic_forward(nn::kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        nn::KernelMode /*mode*/,
                        nn::ExecutionPath /*path*/) const override {
    const std::size_t n = numel_of(input_shape);
    const nn::kernels::SymBuffer in = exec.input_buffer();
    const nn::kernels::SymBuffer out = exec.output_buffer(n);
    for (std::size_t i = 0; i < n; ++i) {
      const nn::kernels::SymValue mask =
          exec.rng_draw(SCE_SYM_SITE("mask draw"));
      exec.assign(out, i, join(exec.value(in, i), mask));
    }
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }
};

/// Identity layer with no symbolic model: nothing can be derived for it,
/// so the analyzer must fall back to the conservative worst case.
class UndeclaredLayer final : public nn::Layer {
 public:
  std::string name() const override { return "undeclared"; }

  using nn::Layer::forward_into;
  void forward_into(const nn::Tensor& input, nn::Tensor& output,
                    nn::Workspace& /*workspace*/, uarch::TraceSink& /*sink*/,
                    nn::KernelMode /*mode*/,
                    nn::ExecutionPath /*path*/) const override {
    if (!output.same_shape(input)) output.resize(input.shape());
    std::copy(input.data(), input.data() + input.numel(), output.data());
  }

  nn::Tensor train_forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad) override { return grad; }
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& in) const override {
    return in;
  }
};

}  // namespace sce::analysis::testing
