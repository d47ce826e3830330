// Microbenchmarks (google-benchmark): throughput of the simulator and
// kernel building blocks.  These are engineering benches, not paper
// artifacts — they track the cost of the instrumentation machinery.
//
// Before the google-benchmark suite runs, main() measures allocating vs
// planned-scalar vs planned-fast inference on the MNIST and CIFAR zoo
// models, times the conv/dense hot-loop kernels scalar-vs-fast at zoo
// shapes, and writes it all to BENCH_inference.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "data/synthetic.hpp"
#include "hpc/simulated_pmu.hpp"
#include "nn/conv.hpp"
#include "nn/kernels/conv2d.hpp"
#include "nn/kernels/dense.hpp"
#include "nn/zoo.hpp"
#include "stats/t_test.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/cache.hpp"
#include "uarch/hierarchy.hpp"
#include "util/alloc_hook.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace sce;

void BM_CacheAccess(benchmark::State& state) {
  uarch::CacheConfig cfg;
  cfg.policy = static_cast<uarch::ReplacementPolicy>(state.range(0));
  uarch::CacheLevel cache(cfg);
  util::Rng rng(1);
  std::uintptr_t addr = 0;
  for (auto _ : state) {
    addr = (addr + 64 * (1 + rng.below(64))) & ((1u << 20) - 1);
    benchmark::DoNotOptimize(cache.access(addr, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)
    ->Arg(static_cast<int>(uarch::ReplacementPolicy::kLru))
    ->Arg(static_cast<int>(uarch::ReplacementPolicy::kTreePlru))
    ->Arg(static_cast<int>(uarch::ReplacementPolicy::kFifo))
    ->Arg(static_cast<int>(uarch::ReplacementPolicy::kRandom));

void BM_HierarchyAccess(benchmark::State& state) {
  uarch::MemoryHierarchy hierarchy;
  util::Rng rng(2);
  std::uintptr_t addr = 0;
  for (auto _ : state) {
    addr = (addr + 64 * (1 + rng.below(256))) & ((1u << 24) - 1);
    benchmark::DoNotOptimize(hierarchy.access(addr, 4, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

void BM_BranchPredictor(benchmark::State& state) {
  auto predictor = uarch::make_predictor(
      static_cast<uarch::PredictorKind>(state.range(0)));
  util::Rng rng(3);
  for (auto _ : state) {
    predictor->resolve(0x400000 + 16 * rng.below(64), rng.chance(0.7));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredictor)
    ->Arg(static_cast<int>(uarch::PredictorKind::kBimodal))
    ->Arg(static_cast<int>(uarch::PredictorKind::kGShare))
    ->Arg(static_cast<int>(uarch::PredictorKind::kTwoLevelLocal));

void BM_MnistInference(benchmark::State& state) {
  // Uninstrumented forward pass of the untrained reference CNN.
  nn::Sequential model = nn::build_mnist_cnn();
  util::Rng rng(4);
  model.initialize(rng);
  data::SyntheticConfig cfg;
  cfg.examples_per_class = 1;
  cfg.num_classes = 1;
  const data::Dataset ds = data::make_mnist_like(cfg);
  const nn::Tensor input = nn::image_to_tensor(ds[0].image);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(input));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MnistInference);

void BM_MnistInferencePlanned(benchmark::State& state) {
  // Preplanned forward pass: buffers preallocated once, trace generation
  // compiled out.  The gap to BM_MnistInferenceAllocating is the cost of
  // per-call allocation plus virtual no-op sink dispatch.
  nn::Sequential model = nn::build_mnist_cnn();
  util::Rng rng(4);
  model.initialize(rng);
  data::SyntheticConfig cfg;
  cfg.examples_per_class = 1;
  cfg.num_classes = 1;
  const data::Dataset ds = data::make_mnist_like(cfg);
  const nn::Tensor input = nn::image_to_tensor(ds[0].image);
  nn::InferencePlan plan = model.plan(input.shape());
  for (auto _ : state) {
    benchmark::DoNotOptimize(&plan.run(input));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MnistInferencePlanned);

void BM_MnistInferenceTraced(benchmark::State& state) {
  // Same forward pass but streaming the trace through the simulated PMU —
  // the ratio to BM_MnistInference is the instrumentation overhead.
  nn::Sequential model = nn::build_mnist_cnn();
  util::Rng rng(4);
  model.initialize(rng);
  data::SyntheticConfig cfg;
  cfg.examples_per_class = 1;
  cfg.num_classes = 1;
  const data::Dataset ds = data::make_mnist_like(cfg);
  const nn::Tensor input = nn::image_to_tensor(ds[0].image);
  hpc::SimulatedPmu pmu;
  for (auto _ : state) {
    pmu.start();
    benchmark::DoNotOptimize(
        model.forward(input, pmu.sink(), nn::KernelMode::kDataDependent));
    pmu.stop();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MnistInferenceTraced);

void BM_WelchTTest(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<double> a(static_cast<std::size_t>(state.range(0)));
  std::vector<double> b(a.size());
  for (auto& x : a) x = rng.normal(100.0, 5.0);
  for (auto& x : b) x = rng.normal(101.0, 5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::welch_t_test(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WelchTTest)->Arg(100)->Arg(1000);

void BM_SynthesizeDigit(benchmark::State& state) {
  data::SyntheticConfig cfg;
  util::Rng rng(6);
  int digit = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::render_digit(digit, cfg, rng));
    digit = (digit + 1) % 10;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SynthesizeDigit);

/// The seed engine's no-op sink: every trace event pays a virtual call.
/// Today's NullSink declares discards(), which lets kernels skip trace
/// generation entirely — so reproducing the legacy baseline needs a sink
/// that keeps the virtual dispatch on the hot path.
struct LegacyNullSink final : uarch::TraceSink {
  void load(const void*, std::size_t) override {}
  void store(const void*, std::size_t) override {}
  void branch(std::uintptr_t, bool) override {}
  void structural_branches(std::uint64_t) override {}
  void retire(std::uint64_t) override {}
  // discards() stays false: kernels keep calling through the vtable.
};

struct InferenceTiming {
  double ns_per_inference = 0.0;
  double allocations_per_inference = 0.0;
};

/// Time `fn` (one inference per call) with the allocation hook armed.
template <typename Fn>
InferenceTiming time_inference(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < 3; ++i) fn();  // warmup: heap + caches reach steady state
  constexpr std::size_t kMaxReps = 512;
  constexpr auto kMinElapsed = std::chrono::milliseconds(250);
  const util::AllocationCounter allocs;
  const auto begin = clock::now();
  std::size_t reps = 0;
  while (reps < kMaxReps && clock::now() - begin < kMinElapsed) {
    fn();
    ++reps;
  }
  const auto elapsed = clock::now() - begin;
  InferenceTiming t;
  t.ns_per_inference =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      static_cast<double>(reps);
  t.allocations_per_inference = static_cast<double>(allocs.allocations()) /
                                static_cast<double>(reps);
  return t;
}

void report_model(util::JsonWriter& json, const char* tag,
                  nn::Sequential model, const nn::Tensor& input) {
  // Allocating baseline: the legacy per-layer-allocating forward pass
  // with virtually dispatched no-op trace sinks.
  LegacyNullSink null_sink;
  const InferenceTiming allocating = time_inference([&] {
    benchmark::DoNotOptimize(
        model.forward(input, null_sink, nn::KernelMode::kDataDependent));
  });

  nn::InferencePlan plan = model.plan(input.shape());

  // Planned scalar path: preallocated buffers, instrumented loop
  // structure with trace generation compiled out — the fast kernels'
  // reference implementation and timing baseline.
  uarch::NullSink discarding;
  const InferenceTiming planned_scalar = time_inference([&] {
    benchmark::DoNotOptimize(
        &plan.run(input, discarding, nn::KernelMode::kDataDependent,
                  nn::ExecutionPath::kInstrumented));
  });

  // Planned fast path: what an untraced plan.run dispatches to.
  const InferenceTiming planned =
      time_inference([&] { benchmark::DoNotOptimize(&plan.run(input)); });

  const double speedup = planned.ns_per_inference > 0.0
                             ? allocating.ns_per_inference /
                                   planned.ns_per_inference
                             : 0.0;
  const double fast_speedup = planned.ns_per_inference > 0.0
                                  ? planned_scalar.ns_per_inference /
                                        planned.ns_per_inference
                                  : 0.0;
  std::printf(
      "[inference] %-8s allocating %10.0f ns (%5.1f allocs)  scalar "
      "%10.0f ns  fast %10.0f ns (%4.1f allocs)  vs-allocating %.2fx  "
      "vs-scalar %.2fx\n",
      tag, allocating.ns_per_inference, allocating.allocations_per_inference,
      planned_scalar.ns_per_inference, planned.ns_per_inference,
      planned.allocations_per_inference, speedup, fast_speedup);

  json.begin_object();
  json.key("model").value(tag);
  json.key("input_shape").begin_array();
  for (std::size_t d : input.shape())
    json.value(static_cast<std::uint64_t>(d));
  json.end_array();
  json.key("allocating").begin_object();
  json.key("ns_per_inference").value(allocating.ns_per_inference);
  json.key("allocations_per_inference")
      .value(allocating.allocations_per_inference);
  json.end_object();
  json.key("planned_scalar").begin_object();
  json.key("ns_per_inference").value(planned_scalar.ns_per_inference);
  json.key("allocations_per_inference")
      .value(planned_scalar.allocations_per_inference);
  json.end_object();
  json.key("planned").begin_object();
  json.key("ns_per_inference").value(planned.ns_per_inference);
  json.key("allocations_per_inference")
      .value(planned.allocations_per_inference);
  json.end_object();
  json.key("speedup").value(speedup);
  json.key("fast_speedup").value(fast_speedup);
  json.end_object();
}

/// Best-of-three-windows timer for microsecond-scale kernel calls (the
/// minimum is the least scheduler-noise-sensitive estimator).
template <typename Fn>
double time_kernel_ns(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < 8; ++i) fn();  // warmup
  constexpr auto kWindow = std::chrono::milliseconds(40);
  constexpr std::size_t kMaxReps = 100000;
  double best = 0.0;
  for (int window = 0; window < 3; ++window) {
    const auto begin = clock::now();
    std::size_t reps = 0;
    while (reps < kMaxReps && clock::now() - begin < kWindow) {
      fn();
      ++reps;
    }
    const auto elapsed = clock::now() - begin;
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()) /
        static_cast<double>(reps);
    if (window == 0 || ns < best) best = ns;
  }
  return best;
}

void fill_normal(std::vector<float>& v, util::Rng& rng) {
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
}

/// Scalar-vs-fast hot-loop timing for one conv shape (the zoo models'
/// heaviest layers), in the deployed data-dependent mode.
void report_conv_kernel(util::JsonWriter& json, const char* tag,
                        std::size_t in_c, std::size_t out_c, std::size_t k,
                        std::size_t in_hw) {
  const std::size_t out_hw = in_hw - k + 1;  // stride 1, no padding (zoo)
  util::Rng rng(11);
  std::vector<float> in(in_c * in_hw * in_hw);
  std::vector<float> w(out_c * in_c * k * k);
  std::vector<float> bias(out_c);
  std::vector<float> out(out_c * out_hw * out_hw);
  fill_normal(in, rng);
  fill_normal(w, rng);
  fill_normal(bias, rng);
  // Post-ReLU feature maps are the real conv inputs past layer 1: clamp
  // negatives to zero so the data-dependent zero-skip has work to skip.
  for (float& x : in) x = x < 0.0f ? 0.0f : x;

  const nn::kernels::Conv2DShape s{
      {in_c, out_c, k, /*stride=*/1, /*padding=*/0, in_hw, in_hw, out_hw,
       out_hw},
      in.data(),
      w.data(),
      bias.data(),
      out.data()};

  nn::Workspace ws;
  uarch::NullSink discard;  // the instrumented kernel's scalar baseline
  for (const auto mode :
       {nn::KernelMode::kDataDependent, nn::KernelMode::kConstantFlow}) {
    const double scalar_ns = time_kernel_ns(
        [&] { nn::kernels::conv2d_direct_instrumented(s, discard, mode); });
    const double fast_ns = time_kernel_ns([&] {
      nn::kernels::conv2d_fast(s, ws, nn::ConvAlgorithm::kDirect, mode);
    });
    const double speedup = fast_ns > 0.0 ? scalar_ns / fast_ns : 0.0;
    std::printf("[kernel]    %-22s %-15s scalar %9.0f ns  fast %8.0f ns  "
                "speedup %.2fx\n",
                tag, nn::to_string(mode).c_str(), scalar_ns, fast_ns, speedup);

    json.begin_object();
    json.key("kernel").value("conv2d.direct");
    json.key("shape").value(tag);
    json.key("mode").value(nn::to_string(mode));
    json.key("scalar_ns").value(scalar_ns);
    json.key("fast_ns").value(fast_ns);
    json.key("speedup").value(speedup);
    json.end_object();
  }
}

/// Scalar-vs-fast hot-loop timing for one dense shape.
void report_dense_kernel(util::JsonWriter& json, const char* tag,
                         std::size_t in_f, std::size_t out_f) {
  util::Rng rng(13);
  std::vector<float> in(in_f);
  std::vector<float> w(in_f * out_f);
  std::vector<float> bias(out_f);
  std::vector<float> out(out_f);
  fill_normal(in, rng);
  fill_normal(w, rng);
  fill_normal(bias, rng);
  for (float& x : in) x = x < 0.0f ? 0.0f : x;  // post-ReLU activations

  const nn::kernels::DenseShape s{
      {in_f, out_f}, in.data(), w.data(), bias.data(), out.data()};

  uarch::NullSink discard;  // the instrumented kernel's scalar baseline
  for (const auto mode :
       {nn::KernelMode::kDataDependent, nn::KernelMode::kConstantFlow}) {
    const double scalar_ns = time_kernel_ns(
        [&] { nn::kernels::dense_instrumented(s, discard, mode); });
    const double fast_ns =
        time_kernel_ns([&] { nn::kernels::dense_fast(s, mode); });
    const double speedup = fast_ns > 0.0 ? scalar_ns / fast_ns : 0.0;
    std::printf("[kernel]    %-22s %-15s scalar %9.0f ns  fast %8.0f ns  "
                "speedup %.2fx\n",
                tag, nn::to_string(mode).c_str(), scalar_ns, fast_ns, speedup);

    json.begin_object();
    json.key("kernel").value("dense");
    json.key("shape").value(tag);
    json.key("mode").value(nn::to_string(mode));
    json.key("scalar_ns").value(scalar_ns);
    json.key("fast_ns").value(fast_ns);
    json.key("speedup").value(speedup);
    json.end_object();
  }
}

void write_inference_report() {
  util::JsonWriter json;
  json.begin_object();
  json.key("bench").value("inference");
  json.key("models").begin_array();
  {
    nn::Sequential model = nn::build_mnist_cnn();
    util::Rng rng(4);
    model.initialize(rng);
    data::SyntheticConfig cfg;
    cfg.examples_per_class = 1;
    cfg.num_classes = 1;
    report_model(json, "mnist_cnn", std::move(model),
                 nn::image_to_tensor(data::make_mnist_like(cfg)[0].image));
  }
  {
    nn::Sequential model = nn::build_cifar_cnn();
    util::Rng rng(7);
    model.initialize(rng);
    data::SyntheticConfig cfg;
    cfg.examples_per_class = 1;
    cfg.num_classes = 1;
    report_model(json, "cifar_cnn", std::move(model),
                 nn::image_to_tensor(data::make_cifar_like(cfg)[0].image));
  }
  json.end_array();
  json.key("kernels").begin_array();
  // The zoo models' hottest layers: each CNN's second conv (most MACs)
  // and first dense (largest weight matrix).
  report_conv_kernel(json, "mnist_conv2_8x16x5", 8, 16, 5, 12);
  report_conv_kernel(json, "cifar_conv2_12x24x3", 12, 24, 3, 15);
  report_dense_kernel(json, "mnist_dense1_256x64", 256, 64);
  report_dense_kernel(json, "cifar_dense1_864x64", 864, 64);
  json.end_array();
  json.end_object();
  std::ofstream out("BENCH_inference.json");
  out << json.str() << '\n';
  std::printf("[inference] wrote BENCH_inference.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  write_inference_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
