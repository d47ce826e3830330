// Inverted dropout: a training-time regularizer.
//
// Inference is the identity (and emits no trace — dropout disappears from
// the deployed network, so it plays no role in the side-channel story);
// training masks activations with probability `rate` and scales the
// survivors by 1/(1-rate) so the expected activation is unchanged.
#pragma once

#include "nn/layer.hpp"

namespace sce::nn {

class Dropout final : public Layer {
 public:
  explicit Dropout(float rate, std::uint64_t seed = 1234);

  std::string name() const override { return "dropout"; }
  using Layer::forward_into;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& workspace, uarch::TraceSink& sink,
                    KernelMode mode, ExecutionPath path) const override;
  Tensor train_forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override {
    return input_shape;
  }

  float rate() const { return rate_; }

  /// Identity at inference: a traceless copy that draws no randomness
  /// (the mask is a training-only construct), so the RNG finding does
  /// not fire on deployed models.
  void symbolic_forward(kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode mode, ExecutionPath path) const override;

 private:
  float rate_;
  util::Rng rng_;
  std::vector<bool> mask_;
};

}  // namespace sce::nn
