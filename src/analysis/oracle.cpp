#include "analysis/oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>

#include "analysis/symexec/engine.hpp"
#include "uarch/trace.hpp"
#include "util/error.hpp"

namespace sce::analysis {

namespace {

using uarch::RecordingSink;

/// The aspects of one recorded trace the contract makes claims about.
struct TraceAspects {
  /// (kind, address, bytes) for every load/store, in program order.
  std::vector<std::tuple<bool, std::uintptr_t, std::uint64_t>> memory;
  /// (site, taken) for every conditional branch, in program order.
  std::vector<std::pair<std::uintptr_t, bool>> branch_outcomes;
  std::uint64_t branch_count = 0;  // conditional + structural
  std::uint64_t instruction_count = 0;
};

TraceAspects aspects_of(const RecordingSink& sink) {
  TraceAspects a;
  std::uint64_t retired = 0;
  for (const RecordingSink::Event& e : sink.events()) {
    switch (e.kind) {
      case RecordingSink::Kind::kLoad:
        a.memory.emplace_back(true, e.address, e.value);
        break;
      case RecordingSink::Kind::kStore:
        a.memory.emplace_back(false, e.address, e.value);
        break;
      case RecordingSink::Kind::kBranch:
        a.branch_outcomes.emplace_back(e.address, e.value != 0);
        ++a.branch_count;
        break;
      case RecordingSink::Kind::kStructuralBranches:
        a.branch_count += e.value;
        break;
      case RecordingSink::Kind::kRetire:
        retired += e.value;
        break;
    }
  }
  a.instruction_count = a.memory.size() + a.branch_count + retired;
  return a;
}

void fill_probe(nn::Tensor& tensor, std::size_t variant) {
  const std::size_t n = tensor.numel();
  float* data = tensor.data();
  for (std::size_t i = 0; i < n; ++i) {
    switch (variant) {
      case 0:  // dense positive, strictly increasing: no skip ever fires
        data[i] = 0.25f + 0.01f * static_cast<float>(i % 512);
        break;
      case 1:  // mixed: zeros, negatives and positives interleaved
        switch (i % 3) {
          case 0: data[i] = 0.0f; break;
          case 1: data[i] = -0.5f - 0.01f * static_cast<float>(i % 128); break;
          default: data[i] = 0.5f + 0.01f * static_cast<float>(i % 128); break;
        }
        break;
      case 2:  // sparse: mostly zero
        data[i] = (i % 7 == 0) ? 0.75f : 0.0f;
        break;
      default:  // strictly decreasing positive: max sits first in a window
        data[i] = 2.0f + 0.001f * static_cast<float>(n - i);
        break;
    }
  }
}

}  // namespace

std::vector<nn::Tensor> default_probes(const std::vector<std::size_t>& shape) {
  std::vector<nn::Tensor> probes;
  probes.reserve(4);
  for (std::size_t variant = 0; variant < 4; ++variant) {
    nn::Tensor t(shape);
    fill_probe(t, variant);
    probes.push_back(std::move(t));
  }
  return probes;
}

TraceVariance probe_layer(const nn::Layer& layer,
                          const std::vector<nn::Tensor>& probes,
                          nn::KernelMode mode) {
  if (probes.empty())
    throw InvalidArgument("probe_layer: need at least one probe input");
  for (const nn::Tensor& p : probes)
    if (!p.same_shape(probes.front()))
      throw InvalidArgument("probe_layer: probes must share one shape");

  // One input buffer, one output buffer, one workspace: reused across
  // probes so the recorded addresses differ only if the *data* steers
  // the kernel to different locations.
  nn::Tensor input(probes.front().shape());
  nn::Tensor output;
  nn::Workspace workspace;
  RecordingSink sink;

  TraceVariance variance;
  TraceAspects reference;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    std::copy(probes[p].data(), probes[p].data() + probes[p].numel(),
              input.data());
    sink.clear();
    layer.forward_into(input, output, workspace, sink, mode);
    TraceAspects current = aspects_of(sink);
    if (p == 0) {
      reference = std::move(current);
      continue;
    }
    if (current.memory != reference.memory) variance.address_stream = true;
    if (current.branch_outcomes != reference.branch_outcomes)
      variance.branch_outcomes = true;
    if (current.branch_count != reference.branch_count)
      variance.branch_count = true;
    if (current.instruction_count != reference.instruction_count)
      variance.instruction_count = true;
  }
  return variance;
}

std::vector<OracleMismatch> cross_check_model(
    const nn::Sequential& model, const std::vector<std::size_t>& input_shape,
    nn::KernelMode mode) {
  std::vector<OracleMismatch> mismatches;
  auto disagree = [&](std::size_t index, const std::string& name,
                      const char* claim, bool derived, bool observed) {
    if (derived == observed) return;
    mismatches.push_back(
        {index, name,
         std::string(claim) + ": derived " +
             (derived ? "varying" : "invariant") + ", trace oracle observed " +
             (observed ? "varying" : "invariant")});
  };

  std::vector<std::size_t> shape = input_shape;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const nn::Layer& layer = model.layer(i);
    const std::vector<std::size_t> in_shape = shape;
    shape = layer.output_shape(shape);
    const nn::LeakageContract contract =
        symexec::derive_layer_contract(layer, in_shape, mode,
                                       nn::ExecutionPath::kInstrumented)
            .contract;
    if (!contract.declared) continue;
    const TraceVariance observed =
        probe_layer(layer, default_probes(in_shape), mode);
    disagree(i, layer.name(), "branch outcomes",
             contract.branch_outcomes_vary, observed.branch_outcomes);
    disagree(i, layer.name(), "branch count", contract.branch_count_varies,
             observed.branch_count);
    disagree(i, layer.name(), "address stream",
             contract.address_stream_varies, observed.address_stream);
    disagree(i, layer.name(), "instruction count",
             contract.instruction_count_varies, observed.instruction_count);
  }
  return mismatches;
}

}  // namespace sce::analysis
