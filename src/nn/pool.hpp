// 2x2-style max pooling with data-dependent compare branches.
#pragma once

#include "nn/layer.hpp"

namespace sce::nn {

class MaxPool2D final : public Layer {
 public:
  /// Non-overlapping square pooling windows (stride == window).
  /// Trailing rows/columns that do not fill a window are dropped.
  explicit MaxPool2D(std::size_t window = 2);

  std::string name() const override { return "maxpool2d"; }
  using Layer::forward_into;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& workspace, uarch::TraceSink& sink,
                    KernelMode mode, ExecutionPath path) const override;
  Tensor train_forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override;

  std::size_t window() const { return window_; }

  /// Symbolic model of the (mode, path) kernel.  Data-dependent: one
  /// max-update branch per non-first window element, outcome decided by
  /// where the max sits; memory traffic and counts are fixed.
  /// Constant-flow, and the fast kernel's cmov in both modes: branch-free.
  void symbolic_forward(kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode mode, ExecutionPath path) const override;

 private:
  std::size_t window_;
  Tensor cached_input_;
  std::vector<std::size_t> cached_argmax_;  // flat input index per output
};

}  // namespace sce::nn
