#include "nn/conv.hpp"

#include <cmath>
#include <istream>
#include <ostream>

#include "nn/kernels/conv2d.hpp"
#include "nn/kernels/symbolic.hpp"
#include "nn/serialize.hpp"
#include "util/error.hpp"

namespace sce::nn {

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_size, std::size_t stride,
               std::size_t padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel_size),
      stride_(stride),
      padding_(padding),
      weights_({out_channels, in_channels, kernel_size, kernel_size}),
      bias_(out_channels, 0.0f),
      grad_weights_({out_channels, in_channels, kernel_size, kernel_size}),
      grad_bias_(out_channels, 0.0f),
      momentum_weights_({out_channels, in_channels, kernel_size, kernel_size}),
      momentum_bias_(out_channels, 0.0f) {
  if (in_channels == 0 || out_channels == 0 || kernel_size == 0)
    throw InvalidArgument("Conv2D: dimensions must be positive");
  if (stride == 0) throw InvalidArgument("Conv2D: stride must be positive");
  if (padding >= kernel_size)
    throw InvalidArgument("Conv2D: padding must be below the kernel size");
}

float Conv2D::weight_at(std::size_t oc, std::size_t ic, std::size_t ky,
                        std::size_t kx) const {
  return weights_
      .data()[((oc * in_channels_ + ic) * kernel_ + ky) * kernel_ + kx];
}

std::vector<std::size_t> Conv2D::output_shape(
    const std::vector<std::size_t>& in) const {
  if (in.size() != 3)
    throw InvalidArgument("Conv2D: expected CHW input, got rank " +
                          std::to_string(in.size()));
  if (in[0] != in_channels_)
    throw InvalidArgument("Conv2D: input has " + std::to_string(in[0]) +
                          " channels, layer expects " +
                          std::to_string(in_channels_));
  if (in[1] + 2 * padding_ < kernel_ || in[2] + 2 * padding_ < kernel_)
    throw InvalidArgument("Conv2D: input smaller than kernel");
  return {out_channels_,
          (in[1] + 2 * padding_ - kernel_) / stride_ + 1,
          (in[2] + 2 * padding_ - kernel_) / stride_ + 1};
}

std::size_t Conv2D::parameter_count() const {
  return weights_.numel() + bias_.size();
}

void Conv2D::initialize(util::Rng& rng) {
  // He initialization: weights ~ N(0, 2 / fan_in).
  const double fan_in =
      static_cast<double>(in_channels_ * kernel_ * kernel_);
  const double stddev = std::sqrt(2.0 / fan_in);
  for (std::size_t i = 0; i < weights_.numel(); ++i)
    weights_[i] = static_cast<float>(rng.normal(0.0, stddev));
  for (auto& b : bias_) b = 0.0f;
  momentum_weights_.fill(0.0f);
  for (auto& m : momentum_bias_) m = 0.0f;
}

namespace {

/// The kernels' geometry of `layer` over a validated in_h x in_w input.
kernels::Conv2DGeom conv_geom(const Conv2D& layer, std::size_t in_h,
                              std::size_t in_w) {
  const std::size_t k = layer.kernel_size();
  const std::size_t stride = layer.stride();
  const std::size_t pad = layer.padding();
  return {layer.in_channels(), layer.out_channels(), k, stride, pad,
          in_h, in_w, (in_h + 2 * pad - k) / stride + 1,
          (in_w + 2 * pad - k) / stride + 1};
}

}  // namespace

std::string to_string(ConvAlgorithm algorithm) {
  switch (algorithm) {
    case ConvAlgorithm::kDirect:
      return "direct";
    case ConvAlgorithm::kIm2col:
      return "im2col";
  }
  return "?";
}

void Conv2D::forward_into(const Tensor& input, Tensor& output,
                          Workspace& workspace, uarch::TraceSink& sink,
                          KernelMode mode, ExecutionPath path) const {
  // Validate and size the output without allocating on the hot path: the
  // cheap scalar checks pass when the caller (an InferencePlan) already
  // shaped everything, and the allocating output_shape() call only runs
  // to produce its precise error message on the cold path.
  if (input.rank() != 3 || input.dim(0) != in_channels_ ||
      input.dim(1) + 2 * padding_ < kernel_ ||
      input.dim(2) + 2 * padding_ < kernel_)
    (void)output_shape(input.shape());  // throws with the full diagnosis
  const kernels::Conv2DGeom g = conv_geom(*this, input.dim(1), input.dim(2));
  if (output.rank() != 3 || output.dim(0) != out_channels_ ||
      output.dim(1) != g.out_h || output.dim(2) != g.out_w)
    output.resize({out_channels_, g.out_h, g.out_w});
  const kernels::Conv2DShape shape{g, input.data(), weights_.data(),
                                   bias_.data(), output.data()};

  if (kernels::select_path(sink, path) == ExecutionPath::kFast) {
    kernels::conv2d_fast(shape, workspace, algorithm_, mode);
    return;
  }
  switch (algorithm_) {
    case ConvAlgorithm::kDirect:
      kernels::conv2d_direct_instrumented(shape, sink, mode);
      return;
    case ConvAlgorithm::kIm2col:
      kernels::conv2d_im2col_instrumented(shape, workspace, sink, mode);
      return;
  }
  throw InvalidArgument("Conv2D: unknown algorithm");
}

void Conv2D::visit_buffers(const BufferVisitor& visit) const {
  visit("weights", weights_.data(), weights_.numel() * sizeof(float));
  visit("bias", bias_.data(), bias_.size() * sizeof(float));
}

void Conv2D::symbolic_forward(kernels::SymbolicExecutor& exec,
                              const std::vector<std::size_t>& input_shape,
                              KernelMode mode, ExecutionPath path) const {
  (void)output_shape(input_shape);  // validates
  kernels::conv2d_symbolic(conv_geom(*this, input_shape[1], input_shape[2]),
                           algorithm_, exec, mode, path);
}

Tensor Conv2D::train_forward(const Tensor& input) {
  cached_input_ = input;
  uarch::NullSink sink;
  return forward(input, sink, KernelMode::kConstantFlow);
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  if (cached_input_.numel() == 0)
    throw InvalidArgument("Conv2D::backward before train_forward");
  const auto out_shape = output_shape(cached_input_.shape());
  if (grad_output.shape() != out_shape)
    throw InvalidArgument("Conv2D::backward: gradient shape mismatch");

  const std::size_t in_h = cached_input_.dim(1);
  const std::size_t in_w = cached_input_.dim(2);
  const std::size_t out_h = out_shape[1];
  const std::size_t out_w = out_shape[2];

  Tensor grad_input(cached_input_.shape());
  const float* in_data = cached_input_.data();
  const float* go_data = grad_output.data();
  float* gi_data = grad_input.data();
  float* gw_data = grad_weights_.data();

  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        const float go = go_data[(oc * out_h + oy) * out_w + ox];
        if (go == 0.0f) continue;
        grad_bias_[oc] += go;
        for (std::size_t ic = 0; ic < in_channels_; ++ic) {
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                static_cast<std::ptrdiff_t>(padding_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) continue;
            const std::size_t in_row =
                (ic * in_h + static_cast<std::size_t>(iy)) * in_w;
            const std::size_t w_row =
                ((oc * in_channels_ + ic) * kernel_ + ky) * kernel_;
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                  static_cast<std::ptrdiff_t>(padding_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(in_w))
                continue;
              const std::size_t in_idx =
                  in_row + static_cast<std::size_t>(ix);
              gw_data[w_row + kx] += go * in_data[in_idx];
              gi_data[in_idx] += go * weight_at(oc, ic, ky, kx);
            }
          }
        }
      }
    }
  }
  return grad_input;
}

void Conv2D::sgd_step(float learning_rate, float momentum) {
  float* w = weights_.data();
  float* gw = grad_weights_.data();
  float* mw = momentum_weights_.data();
  for (std::size_t i = 0; i < weights_.numel(); ++i) {
    mw[i] = momentum * mw[i] - learning_rate * detail::clip_gradient(gw[i]);
    w[i] += mw[i];
    gw[i] = 0.0f;
  }
  for (std::size_t i = 0; i < bias_.size(); ++i) {
    momentum_bias_[i] = momentum * momentum_bias_[i] -
                        learning_rate * detail::clip_gradient(grad_bias_[i]);
    bias_[i] += momentum_bias_[i];
    grad_bias_[i] = 0.0f;
  }
}

void Conv2D::save_parameters(std::ostream& out) const {
  detail::write_floats(out, weights_.values());
  detail::write_floats(out, bias_);
}

void Conv2D::load_parameters(std::istream& in) {
  detail::read_floats(in, weights_.values());
  detail::read_floats(in, bias_);
}

}  // namespace sce::nn
