// 2-D convolution layer (valid padding, unit stride).
#pragma once

#include "nn/layer.hpp"

namespace sce::nn {

/// Execution strategy of the convolution kernel.
///  * kDirect — the textbook 7-deep loop nest; weights streamed per
///    output pixel.
///  * kIm2col — materialize the patch matrix, then GEMM (the strategy of
///    BLAS-backed frameworks, and the one GEMM-shape side-channel attacks
///    such as Cache Telepathy target): more memory traffic, different
///    reuse pattern, same arithmetic.
enum class ConvAlgorithm { kDirect, kIm2col };

std::string to_string(ConvAlgorithm algorithm);

class Conv2D final : public Layer {
 public:
  /// Square kernels: weight shape {out_channels, in_channels, k, k}.
  /// `stride` >= 1; `padding` adds implicit zero borders (zero padding
  /// contributes nothing and costs nothing — no loads are emitted for
  /// padded positions, in either kernel mode).
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_size, std::size_t stride = 1,
         std::size_t padding = 0);

  std::string name() const override { return "conv2d"; }
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

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  std::size_t kernel_size() const { return kernel_; }
  std::size_t stride() const { return stride_; }
  std::size_t padding() const { return padding_; }

  ConvAlgorithm algorithm() const { return algorithm_; }
  void set_algorithm(ConvAlgorithm algorithm) { algorithm_ = algorithm; }

  /// Replays the (mode, path, algorithm) conv kernel's loop nest over
  /// the symbolic domain (kernels::conv2d_symbolic).  Data-dependent:
  /// zero-skipping elides the weight load and MAC behind a per-element
  /// branch, so the address stream and instruction count track the
  /// input's sparsity while the branch *count* stays fixed, for both the
  /// direct loop nest and the im2col GEMM.  The fast GEMM's zero skip is
  /// a lane blend: no data-dependent branch in either mode.
  void symbolic_forward(kernels::SymbolicExecutor& exec,
                        const std::vector<std::size_t>& input_shape,
                        KernelMode mode, ExecutionPath path) const override;

  void visit_buffers(const BufferVisitor& visit) const override;

  Tensor& weights() { return weights_; }
  const Tensor& weights() const { return weights_; }
  std::vector<float>& bias() { return bias_; }
  const std::vector<float>& bias() const { return bias_; }

 private:
  float weight_at(std::size_t oc, std::size_t ic, std::size_t ky,
                  std::size_t kx) const;

  ConvAlgorithm algorithm_ = ConvAlgorithm::kDirect;
  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t padding_;
  Tensor weights_;           // {out, in, k, k}
  std::vector<float> bias_;  // {out}

  // Training state.
  Tensor cached_input_;
  Tensor grad_weights_;
  std::vector<float> grad_bias_;
  Tensor momentum_weights_;
  std::vector<float> momentum_bias_;
};

}  // namespace sce::nn
