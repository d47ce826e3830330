#include "nn/dense.hpp"

#include <cmath>

#include "nn/kernels/dense.hpp"
#include "nn/kernels/symbolic.hpp"
#include "nn/serialize.hpp"
#include "util/error.hpp"

namespace sce::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      weights_({in_features, out_features}),
      bias_(out_features, 0.0f),
      grad_weights_({in_features, out_features}),
      grad_bias_(out_features, 0.0f),
      momentum_weights_({in_features, out_features}),
      momentum_bias_(out_features, 0.0f) {
  if (in_features == 0 || out_features == 0)
    throw InvalidArgument("Dense: dimensions must be positive");
}

std::vector<std::size_t> Dense::output_shape(
    const std::vector<std::size_t>& in) const {
  std::size_t numel = 1;
  for (std::size_t d : in) numel *= d;
  if (in.empty() || numel != in_)
    throw InvalidArgument("Dense: input has wrong element count");
  return {out_};
}

std::size_t Dense::parameter_count() const {
  return weights_.numel() + bias_.size();
}

void Dense::initialize(util::Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_));
  for (std::size_t i = 0; i < weights_.numel(); ++i)
    weights_[i] = static_cast<float>(rng.normal(0.0, stddev));
  for (auto& b : bias_) b = 0.0f;
  momentum_weights_.fill(0.0f);
  for (auto& m : momentum_bias_) m = 0.0f;
}

void Dense::forward_into(const Tensor& input, Tensor& output,
                         Workspace& /*workspace*/, uarch::TraceSink& sink,
                         KernelMode mode, ExecutionPath path) const {
  if (input.numel() != in_)
    throw InvalidArgument("Dense::forward: input has wrong element count");
  if (output.rank() != 1 || output.dim(0) != out_) output.resize({out_});

  const kernels::DenseShape shape{{in_, out_}, input.data(), weights_.data(),
                                  bias_.data(), output.data()};

  if (kernels::select_path(sink, path) == ExecutionPath::kFast)
    kernels::dense_fast(shape, mode);
  else
    kernels::dense_instrumented(shape, sink, mode);
}

void Dense::visit_buffers(const BufferVisitor& visit) const {
  visit("weights", weights_.data(), weights_.numel() * sizeof(float));
  visit("bias", bias_.data(), bias_.size() * sizeof(float));
}

void Dense::symbolic_forward(kernels::SymbolicExecutor& exec,
                             const std::vector<std::size_t>& /*input_shape*/,
                             KernelMode mode, ExecutionPath path) const {
  kernels::dense_symbolic(kernels::DenseGeom{in_, out_}, exec, mode, path);
}

Tensor Dense::train_forward(const Tensor& input) {
  if (input.numel() != in_)
    throw InvalidArgument("Dense::train_forward: wrong element count");
  cached_input_ = input.reshaped({in_});
  Tensor output({out_});
  const float* x = cached_input_.data();
  const float* w = weights_.data();
  float* y = output.data();
  for (std::size_t o = 0; o < out_; ++o) y[o] = bias_[o];
  for (std::size_t i = 0; i < in_; ++i) {
    const float v = x[i];
    if (v == 0.0f) continue;
    const float* row = &w[i * out_];
    for (std::size_t o = 0; o < out_; ++o) y[o] += v * row[o];
  }
  return output;
}

Tensor Dense::backward(const Tensor& grad_output) {
  if (cached_input_.numel() == 0)
    throw InvalidArgument("Dense::backward before train_forward");
  if (grad_output.numel() != out_)
    throw InvalidArgument("Dense::backward: gradient shape mismatch");
  Tensor grad_input({in_});
  const float* x = cached_input_.data();
  const float* go = grad_output.data();
  const float* w = weights_.data();
  float* gi = grad_input.data();
  float* gw = grad_weights_.data();
  for (std::size_t o = 0; o < out_; ++o) grad_bias_[o] += go[o];
  for (std::size_t i = 0; i < in_; ++i) {
    const float* row = &w[i * out_];
    float* grow = &gw[i * out_];
    float acc = 0.0f;
    const float v = x[i];
    for (std::size_t o = 0; o < out_; ++o) {
      grow[o] += v * go[o];
      acc += row[o] * go[o];
    }
    gi[i] = acc;
  }
  return grad_input;
}

void Dense::sgd_step(float learning_rate, float momentum) {
  float* w = weights_.data();
  float* gw = grad_weights_.data();
  float* mw = momentum_weights_.data();
  for (std::size_t i = 0; i < weights_.numel(); ++i) {
    mw[i] = momentum * mw[i] - learning_rate * detail::clip_gradient(gw[i]);
    w[i] += mw[i];
    gw[i] = 0.0f;
  }
  for (std::size_t o = 0; o < out_; ++o) {
    momentum_bias_[o] = momentum * momentum_bias_[o] -
                        learning_rate * detail::clip_gradient(grad_bias_[o]);
    bias_[o] += momentum_bias_[o];
    grad_bias_[o] = 0.0f;
  }
}

void Dense::save_parameters(std::ostream& out) const {
  detail::write_floats(out, weights_.values());
  detail::write_floats(out, bias_);
}

void Dense::load_parameters(std::istream& in) {
  detail::read_floats(in, weights_.values());
  detail::read_floats(in, bias_);
}

}  // namespace sce::nn
