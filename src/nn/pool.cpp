#include "nn/pool.hpp"

#include "nn/kernels/pooling.hpp"
#include "nn/kernels/symbolic.hpp"
#include "util/error.hpp"

namespace sce::nn {

MaxPool2D::MaxPool2D(std::size_t window) : window_(window) {
  if (window == 0) throw InvalidArgument("MaxPool2D: window must be positive");
}

std::vector<std::size_t> MaxPool2D::output_shape(
    const std::vector<std::size_t>& in) const {
  if (in.size() != 3)
    throw InvalidArgument("MaxPool2D: expected CHW input");
  if (in[1] < window_ || in[2] < window_)
    throw InvalidArgument("MaxPool2D: input smaller than window");
  return {in[0], in[1] / window_, in[2] / window_};
}

void MaxPool2D::forward_into(const Tensor& input, Tensor& output,
                             Workspace& /*workspace*/, uarch::TraceSink& sink,
                             KernelMode mode, ExecutionPath path) const {
  if (input.rank() != 3 || input.dim(1) < window_ || input.dim(2) < window_)
    (void)output_shape(input.shape());  // throws with the full diagnosis
  const kernels::Pool2DGeom g = kernels::pool2d_geom(
      input.dim(0), input.dim(1), input.dim(2), window_);
  if (output.rank() != 3 || output.dim(0) != g.channels ||
      output.dim(1) != g.out_h || output.dim(2) != g.out_w)
    output.resize({g.channels, g.out_h, g.out_w});
  const kernels::Pool2DShape shape{g, input.data(), output.data()};

  if (kernels::select_path(sink, path) == ExecutionPath::kFast)
    kernels::maxpool2d_fast(shape);
  else
    kernels::maxpool2d_instrumented(shape, sink, mode);
}

void MaxPool2D::symbolic_forward(kernels::SymbolicExecutor& exec,
                                 const std::vector<std::size_t>& input_shape,
                                 KernelMode mode, ExecutionPath path) const {
  (void)output_shape(input_shape);  // validates
  kernels::maxpool2d_symbolic(
      kernels::pool2d_geom(input_shape[0], input_shape[1], input_shape[2],
                           window_),
      exec, mode, path);
}

Tensor MaxPool2D::train_forward(const Tensor& input) {
  cached_input_ = input;
  const auto out_shape = output_shape(input.shape());
  Tensor output(out_shape);
  cached_argmax_.assign(output.numel(), 0);
  const std::size_t channels = out_shape[0];
  const std::size_t out_h = out_shape[1];
  const std::size_t out_w = out_shape[2];
  const std::size_t in_h = input.dim(1);
  const std::size_t in_w = input.dim(2);
  const float* in_data = input.data();

  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        std::size_t best_idx =
            (c * in_h + oy * window_) * in_w + ox * window_;
        float best = in_data[best_idx];
        for (std::size_t wy = 0; wy < window_; ++wy) {
          for (std::size_t wx = 0; wx < window_; ++wx) {
            const std::size_t idx =
                (c * in_h + (oy * window_ + wy)) * in_w + (ox * window_ + wx);
            if (in_data[idx] > best) {
              best = in_data[idx];
              best_idx = idx;
            }
          }
        }
        const std::size_t out_idx = (c * out_h + oy) * out_w + ox;
        output[out_idx] = best;
        cached_argmax_[out_idx] = best_idx;
      }
    }
  }
  return output;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  if (cached_input_.numel() == 0)
    throw InvalidArgument("MaxPool2D::backward before train_forward");
  if (grad_output.numel() != cached_argmax_.size())
    throw InvalidArgument("MaxPool2D::backward: gradient shape mismatch");
  Tensor grad_input(cached_input_.shape());
  for (std::size_t i = 0; i < cached_argmax_.size(); ++i)
    grad_input[cached_argmax_[i]] += grad_output[i];
  return grad_input;
}

}  // namespace sce::nn
