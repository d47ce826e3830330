// Layer interface: instrumented inference plus trainable backward pass.
//
// Inference (`forward_into`) is const, writes into caller-owned storage
// and reports its dynamic behaviour to a TraceSink.  Two kernel modes
// exist:
//
//  * kDataDependent — the default, modelling a normally optimized
//    implementation: ReLU short-circuits, zero activations skip their
//    multiply-accumulate work and the associated weight loads (the
//    zero-skipping optimization exploited by Hua et al., DAC'18), and
//    max-pooling takes data-dependent compare branches.  This is the code
//    whose HPC footprint leaks the input category.
//  * kConstantFlow — the countermeasure: branchless kernels that perform
//    identical memory accesses and instruction counts for every input.
//
// Training (`train_forward` / `backward` / `sgd_step`) is un-instrumented;
// the evaluator only ever observes inference.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "nn/kernels/execution_path.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "uarch/trace.hpp"
#include "util/rng.hpp"

namespace sce::nn {

namespace kernels {
class SymbolicExecutor;
}

enum class KernelMode { kDataDependent, kConstantFlow };

std::string to_string(KernelMode mode);

/// Callback receiving one named inference-time buffer: its label, base
/// address and size in bytes.  Used to register a model's stable buffers
/// with a uarch::TraceBuffer so recorded traces are relocatable.
using BufferVisitor =
    std::function<void(const std::string& name, const void* base,
                       std::size_t bytes)>;

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  /// Inference, writing into caller-owned storage.  Must not mutate the
  /// layer; `input` and `output` must be distinct objects.  `output` is
  /// reshaped as needed (allocation-free when it already has the right
  /// shape, or enough reserved capacity) and `workspace` lends whatever
  /// per-layer scratch the kernel needs, so a caller that reuses both
  /// across calls — the InferencePlan — runs the whole forward pass
  /// without touching the heap.
  ///
  /// `path` is a *request*: implementations resolve it through
  /// kernels::select_path, so an observing sink always executes the
  /// instrumented kernels regardless of what the caller asked for, and
  /// the fast kernels run only when the sink provably discards.
  virtual void forward_into(const Tensor& input, Tensor& output,
                            Workspace& workspace, uarch::TraceSink& sink,
                            KernelMode mode, ExecutionPath path) const = 0;

  /// Default-path convenience: fast when the sink discards (nothing to
  /// trace — deployed inference), instrumented when it observes.
  void forward_into(const Tensor& input, Tensor& output, Workspace& workspace,
                    uarch::TraceSink& sink, KernelMode mode) const {
    forward_into(input, output, workspace, sink, mode,
                 sink.discards() ? ExecutionPath::kFast
                                 : ExecutionPath::kInstrumented);
  }

  /// Allocating convenience wrapper around forward_into (fresh output and
  /// scratch per call — the pre-plan behaviour, kept for tests and one-off
  /// calls; hot loops should go through an InferencePlan instead).
  Tensor forward(const Tensor& input, uarch::TraceSink& sink, KernelMode mode,
                 ExecutionPath path) const;
  Tensor forward(const Tensor& input, uarch::TraceSink& sink,
                 KernelMode mode) const;
  /// Deployed-default dispatch: untraced, data-dependent kernels, fast
  /// path.  What an un-instrumented caller (training's forward pass, a
  /// one-off evaluation) gets without spelling out the policy.
  Tensor forward(const Tensor& input) const;

  /// Forward pass that caches whatever backward() needs.
  virtual Tensor train_forward(const Tensor& input) = 0;

  /// Backpropagate: consume dL/d(output), produce dL/d(input), accumulate
  /// parameter gradients.  Must be called after train_forward.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Apply accumulated gradients with SGD + momentum, then clear them.
  virtual void sgd_step(float /*learning_rate*/, float /*momentum*/) {}

  /// Output shape for a given input shape (shape inference / validation).
  virtual std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const = 0;

  /// Replay this layer's (mode, path) kernel against a symbolic executor
  /// (nn/kernels/symbolic.hpp); the analyzer derives the layer's leakage
  /// contract from it, so the contract is whatever the kernel code does.
  /// Every layer in this library overrides it with its kernel's symbolic
  /// model.  The base default reports the layer as unmodeled, and the
  /// analyzer assumes the worst case for it (LeakageContract::undeclared).
  virtual void symbolic_forward(kernels::SymbolicExecutor& exec,
                                const std::vector<std::size_t>& input_shape,
                                KernelMode mode, ExecutionPath path) const;

  virtual std::size_t parameter_count() const { return 0; }

  /// (De)serialize parameters; layers without parameters write nothing.
  virtual void save_parameters(std::ostream& /*out*/) const {}
  virtual void load_parameters(std::istream& /*in*/) {}

  /// Randomize parameters (He initialization); no-op for stateless layers.
  virtual void initialize(util::Rng& /*rng*/) {}

  /// Report every buffer this layer's *inference* kernels read or write
  /// (weights, biases — not training state, which forward_into never
  /// touches).  Stateless layers report nothing.  Addresses must stay
  /// stable for the visiting consumer's lifetime, which parameter
  /// tensors — sized at construction/load — satisfy.
  virtual void visit_buffers(const BufferVisitor& /*visit*/) const {}
};

namespace detail {
/// Cost constants for `retire` bookkeeping, shared by all kernels so the
/// instruction-count model is consistent.
inline constexpr std::uint64_t kMacInstructions = 2;   // mul + add
inline constexpr std::uint64_t kLoopOverhead = 1;      // index/compare
inline constexpr std::uint64_t kCompareInstructions = 1;

/// Component-wise gradient clip applied by every parameterized layer's
/// sgd_step.  Per-example SGD on cross-entropy occasionally produces large
/// gradients early in training; the clip keeps the small models in this
/// repository stable across seeds without a learning-rate search.
inline constexpr float kGradClip = 1.0f;

inline float clip_gradient(float g) {
  if (g > kGradClip) return kGradClip;
  if (g < -kGradClip) return -kGradClip;
  return g;
}
}  // namespace detail

}  // namespace sce::nn
