// Static sink dispatch: each instrumented kernel picks its sink type once
// per call (kernels::with_static_sink) and runs one of three
// instantiations.  A SimulatedPmu is driven through its inline
// SimulatorSink instantiation, any other observing sink through the
// virtual TraceSink one, and a NullSink through the DiscardSink one.
// The instantiations must be indistinguishable by what they compute and
// by what the simulator counts, branch-misses included: those depend on
// the pc each branch site reports, which must not depend on the sink
// type either.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "hpc/simulated_pmu.hpp"
#include "nn/conv.hpp"
#include "nn/model.hpp"
#include "nn/plan.hpp"
#include "nn/zoo.hpp"
#include "test_helpers.hpp"
#include "uarch/trace.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace sce::nn {
namespace {

/// Forwards every event to `target` through the TraceSink interface.  It
/// is not a simulator itself, so kernels run their TraceSink
/// instantiation into it: one virtual call per event.
class ForwardingSink final : public uarch::TraceSink {
 public:
  explicit ForwardingSink(uarch::TraceSink& target) : target_(target) {}

  void load(const void* addr, std::size_t bytes) override {
    ++events_;
    target_.load(addr, bytes);
  }
  void store(const void* addr, std::size_t bytes) override {
    ++events_;
    target_.store(addr, bytes);
  }
  void branch(std::uintptr_t pc, bool taken) override {
    ++events_;
    target_.branch(pc, taken);
  }
  void structural_branches(std::uint64_t n) override {
    target_.structural_branches(n);
  }
  void retire(std::uint64_t n) override { target_.retire(n); }

  std::uint64_t events() const { return events_; }

 private:
  uarch::TraceSink& target_;
  std::uint64_t events_ = 0;
};

struct ZooCase {
  const char* name;
  Sequential model;
  std::vector<std::size_t> input_shape;
};

std::vector<ZooCase> zoo_cases() {
  std::vector<ZooCase> cases;
  cases.push_back({"mnist_cnn", build_mnist_cnn(), {1, 28, 28}});
  cases.push_back({"cifar_cnn", build_cifar_cnn(), {3, 32, 32}});
  cases.push_back({"sequence_rnn", build_sequence_rnn(), {1, 6, 8}});
  std::uint64_t seed = 900;
  for (ZooCase& c : cases) {
    util::Rng rng(seed++);
    c.model.initialize(rng);
  }
  return cases;
}

/// Every third element an exact zero, so zero-skips go both ways.
Tensor sparse_input(const std::vector<std::size_t>& shape, std::uint64_t seed) {
  Tensor t = testing::random_tensor(shape, seed);
  for (std::size_t i = 0; i < t.numel(); i += 3) t[i] = 0.0f;
  return t;
}

void set_conv_algorithm(Sequential& model, ConvAlgorithm algorithm) {
  for (std::size_t i = 0; i < model.layer_count(); ++i)
    if (auto* conv = dynamic_cast<Conv2D*>(&model.layer(i)))
      conv->set_algorithm(algorithm);
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(StaticSinkDispatch, MatchesVirtualDispatch) {
  hpc::SimulatedPmuConfig config;
  config.environment = hpc::SimulatedPmuConfig::no_environment();
  hpc::SimulatedPmu pmu(config);
  ASSERT_EQ(pmu.sink().simulator(), &pmu);
  ForwardingSink forwarding(pmu);
  ASSERT_EQ(forwarding.simulator(), nullptr);

  for (ZooCase& c : zoo_cases()) {
    for (const ConvAlgorithm algorithm :
         {ConvAlgorithm::kDirect, ConvAlgorithm::kIm2col}) {
      set_conv_algorithm(c.model, algorithm);
      InferencePlan plan = c.model.plan(c.input_shape);
      const Tensor input = sparse_input(c.input_shape, 0xD15);
      for (const KernelMode mode :
           {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
        SCOPED_TRACE(std::string(c.name) + " " + to_string(algorithm) + " " +
                     to_string(mode));
        // Both measurements run over the same plan buffers from a cold
        // start, so the cache counters see the same addresses.
        pmu.start();
        const Tensor direct = plan.run(input, pmu.sink(), mode);
        pmu.stop();
        const hpc::CounterSample static_counts = pmu.read();

        const std::uint64_t events_before = forwarding.events();
        pmu.start();
        const Tensor forwarded = plan.run(input, forwarding, mode);
        pmu.stop();
        const hpc::CounterSample virtual_counts = pmu.read();
        ASSERT_GT(forwarding.events(), events_before);

        EXPECT_TRUE(bit_identical(direct, forwarded));
        for (hpc::HpcEvent e : hpc::all_events())
          EXPECT_EQ(static_counts[e], virtual_counts[e]) << hpc::to_string(e);
        if (mode == KernelMode::kDataDependent)
          EXPECT_GT(static_counts[hpc::HpcEvent::kBranchMisses], 0u);
      }
    }
  }
}

/// Per-layer outputs of the DiscardSink instantiation, which a NullSink
/// selects through the single entry point, digested over every zoo
/// model x conv algorithm x mode.  The pinned value was computed by the
/// dedicated `*_scalar` functions that this dispatch replaced, so the
/// NullSink path is still the old scalar baseline bit for bit; and the
/// observing instantiations must compute the same outputs.
TEST(StaticSinkDispatch, NullSinkMatchesScalarBaseline) {
  hpc::SimulatedPmu pmu;
  uarch::CountingSink counting;
  uarch::NullSink null_sink;
  std::string bytes;
  for (ZooCase& c : zoo_cases()) {
    for (const ConvAlgorithm algorithm :
         {ConvAlgorithm::kDirect, ConvAlgorithm::kIm2col}) {
      set_conv_algorithm(c.model, algorithm);
      for (const KernelMode mode :
           {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
        SCOPED_TRACE(std::string(c.name) + " " + to_string(algorithm) + " " +
                     to_string(mode));
        Tensor x = sparse_input(c.input_shape, 0xBA5E);
        for (std::size_t i = 0; i < c.model.layer_count(); ++i) {
          const Layer& layer = c.model.layer(i);
          Tensor scalar =
              layer.forward(x, null_sink, mode, ExecutionPath::kInstrumented);
          pmu.start();
          const Tensor simulated = layer.forward(x, pmu, mode);
          pmu.stop();
          const Tensor counted = layer.forward(x, counting, mode);
          EXPECT_TRUE(bit_identical(scalar, simulated)) << layer.name();
          EXPECT_TRUE(bit_identical(scalar, counted)) << layer.name();
          bytes.append(reinterpret_cast<const char*>(scalar.data()),
                       scalar.numel() * sizeof(float));
          x = std::move(scalar);
        }
      }
    }
  }
  EXPECT_EQ(util::content_digest_hex(bytes),
            "7c2d4f21503b5d356c3bfeedd9f9b0af");
}

}  // namespace
}  // namespace sce::nn
