// Average pooling: non-overlapping windows, data-INdependent by nature.
//
// Unlike max pooling there is no data-dependent control flow here in
// either kernel mode — the layer is a constant-footprint reduction, which
// makes it interesting for the countermeasure discussion: architectures
// built from avg-pool + constant-flow arithmetic are side-channel-silent
// by construction.
#pragma once

#include "nn/layer.hpp"

namespace sce::nn {

class AvgPool2D final : public Layer {
 public:
  explicit AvgPool2D(std::size_t window = 2);

  std::string name() const override { return "avgpool2d"; }
  using Layer::forward_into;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& workspace, uarch::TraceSink& sink,
                    KernelMode mode, ExecutionPath path) const override;
  Tensor train_forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override;

  std::size_t window() const { return window_; }

  /// Constant-footprint reduction in both modes, on both paths: fixed
  /// loads, fixed arithmetic, no data-dependent branches anywhere.
  void symbolic_forward(kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode mode, ExecutionPath path) const override;

 private:
  std::size_t window_;
  std::vector<std::size_t> cached_input_shape_;
};

}  // namespace sce::nn
