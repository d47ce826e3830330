// Fully connected layer with input-stationary weight layout.
//
// Weights are stored as {in, out} so that each *input* activation owns a
// contiguous row of weights.  In data-dependent mode a zero activation
// skips its entire row — the classic sparse-GEMM optimization — which
// elides both the row's weight loads (cache footprint depends on the
// input) and the row's inner-loop branches (branch count depends on the
// input).  This layer is therefore the strongest single leak source in
// the model, matching the paper's observation that cache-misses carry the
// most category information.
#pragma once

#include "nn/layer.hpp"

namespace sce::nn {

class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features);

  std::string name() const override { return "dense"; }
  using Layer::forward_into;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& workspace, uarch::TraceSink& sink,
                    KernelMode mode, ExecutionPath path) const override;
  Tensor train_forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void sgd_step(float learning_rate, float momentum) override;
  std::vector<std::size_t> output_shape(
      const std::vector<std::size_t>& input_shape) const override;
  std::size_t parameter_count() const override;
  void save_parameters(std::ostream& out) const override;
  void load_parameters(std::istream& in) override;
  void initialize(util::Rng& rng) override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  /// Symbolic model of the (mode, path) kernel.  Data-dependent: the
  /// sparse-GEMM row skip elides a whole weight row (its loads, inner-loop
  /// back-edges and MACs), and the fast GEMV keeps it as a scalar branch,
  /// so every trace aspect varies with the input's zero pattern on both
  /// paths.  Constant-flow: dense GEMM.
  void symbolic_forward(kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode mode, ExecutionPath path) const override;

  void visit_buffers(const BufferVisitor& visit) const override;

  Tensor& weights() { return weights_; }
  const Tensor& weights() const { return weights_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor weights_;           // {in, out}
  std::vector<float> bias_;  // {out}

  Tensor cached_input_;
  Tensor grad_weights_;
  std::vector<float> grad_bias_;
  Tensor momentum_weights_;
  std::vector<float> momentum_bias_;
};

}  // namespace sce::nn
