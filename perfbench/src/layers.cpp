// Traced per-layer probes.  Each probe slot is one campaign measurement
// driven through the public calls of every layer in turn, each call
// wrapped in a benchmark-side span: the plain kernels (nn), trace
// emission (nn), trace recording and the cache, TLB and predictor models
// fed from the recorded trace (uarch), the live and replayed PMU (hpc),
// then lint (analysis), a serial Campaign::run (core) and evaluate
// (stats).  The decomposition is checked against the live measurement of
// the same slot, so the per-layer numbers describe the work the
// end-to-end run does.
#include <filesystem>

#include "analysis/lint.hpp"
#include "common.hpp"
#include "core/acquisition_keys.hpp"
#include "nn/plan.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/cache.hpp"
#include "uarch/hierarchy.hpp"
#include "uarch/tlb.hpp"
#include "uarch/trace_buffer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = sce::core;
namespace hpc = sce::hpc;
namespace nn = sce::nn;
namespace uarch = sce::uarch;
using hpc::HpcEvent;

namespace {

/// Memory-only sink base: branches and tallies are ignored.
class MemorySink : public uarch::TraceSink {
 public:
  void branch(std::uintptr_t, bool) override {}
  void structural_branches(std::uint64_t) override {}
  void retire(std::uint64_t) override {}
};

/// Feeds loads and stores to MemoryHierarchy::access, as SimulatedPmu does.
class HierarchySink final : public MemorySink {
 public:
  explicit HierarchySink(const uarch::HierarchyConfig& config)
      : hierarchy(config) {}
  void load(const void* addr, std::size_t bytes) override {
    hierarchy.access(reinterpret_cast<std::uintptr_t>(addr), bytes, false);
  }
  void store(const void* addr, std::size_t bytes) override {
    hierarchy.access(reinterpret_cast<std::uintptr_t>(addr), bytes, true);
  }
  uarch::MemoryHierarchy hierarchy;
};

/// Splits each access into cache lines, as MemoryHierarchy::access does,
/// and hands every line to `Visit`.
template <typename Visit>
class LineSink final : public MemorySink {
 public:
  LineSink(std::size_t line_bytes, Visit visit)
      : line_(line_bytes), visit_(std::move(visit)) {}
  void load(const void* addr, std::size_t bytes) override {
    lines(reinterpret_cast<std::uintptr_t>(addr), bytes, false);
  }
  void store(const void* addr, std::size_t bytes) override {
    lines(reinterpret_cast<std::uintptr_t>(addr), bytes, true);
  }

 private:
  void lines(std::uintptr_t addr, std::size_t bytes, bool is_write) {
    for (std::uintptr_t l = addr / line_; l <= (addr + bytes - 1) / line_; ++l)
      visit_(l * line_, is_write);
  }
  std::size_t line_;
  Visit visit_;
};

/// Feeds conditional branches to BranchPredictor::resolve.
class PredictorSink final : public uarch::TraceSink {
 public:
  explicit PredictorSink(uarch::PredictorKind kind)
      : predictor(uarch::make_predictor(kind)) {}
  void load(const void*, std::size_t) override {}
  void store(const void*, std::size_t) override {}
  void branch(std::uintptr_t pc, bool taken) override {
    predictor->resolve(pc, taken);
  }
  void structural_branches(std::uint64_t) override {}
  void retire(std::uint64_t) override {}
  std::unique_ptr<uarch::BranchPredictor> predictor;
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

template <typename F>
void timed(Tracer& tracer, const char* name, long parent, std::uint64_t id,
           F&& f) {
  Scoped span(&tracer, name, parent, id);
  f();
}

}  // namespace

void probe_layers(const LayerInputs& in, Tracer& tracer, Report& report) {
  const std::size_t ncat = in.categories.size();
  std::vector<std::vector<const sce::data::Example*>> pools;
  for (int label : in.categories) pools.push_back(in.dataset->examples_of(label));

  nn::Tensor staged;
  nn::image_to_tensor_into(pools.front().front()->image, staged);
  nn::InferencePlan plan(*in.model, staged.shape());
  uarch::TraceBuffer trace;
  plan.register_regions(trace);
  uarch::NullSink null_sink;
  hpc::SimulatedPmu live(in.pmu);
  hpc::SimulatedPmu replayer(in.pmu);
  const uarch::HierarchyConfig& hcfg = in.pmu.hierarchy;
  const std::size_t line = hcfg.l1d.line_bytes;

  std::uint64_t trace_events = 0, l1_acc = 0, l1_miss = 0, llc_acc = 0,
                llc_miss = 0, tlb_acc = 0, tlb_miss = 0, cond = 0, mispred = 0;
  double bytes_per_event = 0.0;
  auto check = [&](bool ok, std::size_t slot, const std::string& what) {
    if (!ok)
      report.fail_check("decomposition, slot " + std::to_string(slot) + ": " +
                        what);
  };

  // Slot 0 runs twice; the first pass only warms allocations and is not
  // part of the trace.
  Tracer scratch;
  for (std::size_t t = 0; t <= in.slots; ++t) {
    const bool warm = t == 0;
    const std::size_t slot = warm ? 0 : t - 1;
    Tracer& tr = warm ? scratch : tracer;
    const std::size_t c = slot % ncat, s = slot / ncat;
    nn::image_to_tensor_into(pools[c][s % pools[c].size()]->image, staged);
    const std::uint64_t key = sce::core::acquisition::slot_key(slot, 0);
    const long root = tr.begin("probe.slot", -1, slot);

    timed(tr, "nn.kernel", root, slot, [&] {
      (void)plan.run(staged, null_sink, in.mode, nn::ExecutionPath::kInstrumented);
    });
    uarch::CountingSink counting;
    timed(tr, "nn.counting", root, slot,
          [&] { (void)plan.run(staged, counting, in.mode); });
    trace.clear();
    timed(tr, "uarch.record", root, slot,
          [&] { (void)plan.run(staged, trace, in.mode); });

    hpc::CounterSample measured;
    (void)live.set_measurement_key(key);
    timed(tr, "hpc.measure", root, slot, [&] {
      live.start();
      (void)plan.run(staged, live, in.mode);
      live.stop();
      measured = live.read();
    });
    const hpc::CounterSample counts = live.workload_counts();

    HierarchySink hierarchy(hcfg);
    timed(tr, "uarch.hierarchy", root, slot, [&] {
      trace.replay(hierarchy, uarch::ReplayClass::kMemory);
    });
    uarch::CacheLevel l1d(hcfg.l1d);
    LineSink l1d_sink(line, [&l1d](std::uintptr_t a, bool w) { l1d.access(a, w); });
    timed(tr, "uarch.l1d", root, slot,
          [&] { trace.replay(l1d_sink, uarch::ReplayClass::kMemory); });
    uarch::Tlb tlb(hcfg.tlb);
    LineSink tlb_sink(line, [&tlb](std::uintptr_t a, bool) { tlb.access(a); });
    timed(tr, "uarch.tlb", root, slot,
          [&] { trace.replay(tlb_sink, uarch::ReplayClass::kMemory); });
    PredictorSink predictor(in.pmu.predictor);
    timed(tr, "uarch.predictor", root, slot, [&] {
      trace.replay(predictor, uarch::ReplayClass::kControlFlow);
    });

    hpc::CounterSample replayed;
    (void)replayer.set_measurement_key(key);
    timed(tr, "hpc.replay", root, slot,
          [&] { replayed = replayer.measure_trace(trace); });
    replayer.start();
    timed(tr, "hpc.memory_session_stable", root, slot, [&] {
      trace.replay(replayer, uarch::ReplayClass::kMemory,
                   uarch::ReplayAddressing::kSessionStable);
    });
    replayer.stop();
    replayer.start();
    timed(tr, "hpc.memory_canonical", root, slot,
          [&] { replayer.consume(trace, uarch::ReplayClass::kMemory); });
    replayer.stop();
    tr.end(root);
    if (warm) continue;

    // The decomposition must describe the live measurement of this slot.
    const uarch::TraceSummary& sum = trace.summary();
    check(counting.loads() == sum.loads && counting.stores() == sum.stores &&
              counting.branches() == sum.branches() &&
              counting.retired() == sum.retired,
          slot, "CountingSink and TraceBuffer summary disagree");
    const auto& h = hierarchy.hierarchy;
    check(h.last_level_references() == counts[HpcEvent::kCacheReferences] &&
              h.last_level_misses() == counts[HpcEvent::kCacheMisses],
          slot, "hierarchy replay LLC references/misses differ from the live PMU");
    check(l1d.stats().accesses == h.l1d_stats().accesses &&
              l1d.stats().misses == h.l1d_stats().misses,
          slot, "standalone L1D differs from the hierarchy's L1D");
    check(tlb.stats().accesses == h.tlb_stats().accesses &&
              tlb.stats().misses == h.tlb_stats().misses,
          slot, "standalone TLB differs from the hierarchy's TLB");
    check(predictor.predictor->stats().mispredicts ==
              counts[HpcEvent::kBranchMisses],
          slot, "predictor replay mispredicts differ from the live PMU");
    bool same = true;
    for (HpcEvent e : hpc::all_events()) same = same && replayed[e] == measured[e];
    check(same, slot, "replayed sample differs from the live sample");

    trace_events += counting.loads() + counting.stores() + counting.branches();
    bytes_per_event += trace.stats().bytes_per_event();
    l1_acc += h.l1d_stats().accesses;
    l1_miss += h.l1d_stats().misses;
    llc_acc += h.llc_stats().accesses;
    llc_miss += h.llc_stats().misses;
    tlb_acc += h.tlb_stats().accesses;
    tlb_miss += h.tlb_stats().misses;
    cond += predictor.predictor->stats().branches;
    mispred += predictor.predictor->stats().mispredicts;
  }

  sce::analysis::LintOptions lint_options;
  lint_options.mode = in.mode;
  for (int i = 0; i < 3; ++i)
    timed(tracer, "analysis.lint", -1, 0, [&] {
      (void)sce::analysis::lint(*in.model, staged.shape(), lint_options);
    });

  // A serial campaign over the same slots, without warm-up measurements:
  // its wall time per sample minus hpc.measure_ms is the acquisition
  // loop's own cost.
  hpc::SimulatedPmuFactory factory(in.pmu);
  core::CampaignConfig cfg;
  cfg.categories = in.categories;
  cfg.samples_per_category = (in.slots + ncat - 1) / ncat;
  cfg.kernel_mode = in.mode;
  cfg.warmup_measurements = 0;
  cfg.num_shards = 1;
  cfg.num_threads = 1;
  core::CampaignResult probe;
  const Clock::time_point t0 = Clock::now();
  timed(tracer, "core.campaign_probe", -1, 0, [&] {
    probe = core::Campaign(*in.model, *in.dataset, factory).with_config(cfg).run();
  });
  const double campaign_ms_per_sample =
      ms_since(t0) / static_cast<double>(probe.diagnostics.measurements_recorded);
  for (int i = 0; i < 3; ++i)
    timed(tracer, "stats.evaluate_probe", -1, 0,
          [&] { (void)core::evaluate(probe); });

  const auto med = [&](const char* name) {
    return median(tracer.durations_ms(name));
  };
  const double kernel = med("nn.kernel");
  const double measure = med("hpc.measure");
  const double n = static_cast<double>(in.slots);
  report.add("nn.kernel_ms", kernel, "ms");
  report.add("nn.trace_emit_ms", med("nn.counting") - kernel, "ms");
  report.add("nn.trace_events", static_cast<double>(trace_events) / n, "count");
  report.add("uarch.record_ms", med("uarch.record"), "ms");
  report.add("uarch.bytes_per_event", bytes_per_event / n, "B");
  report.add("uarch.hierarchy_ms", med("uarch.hierarchy"), "ms");
  report.add("uarch.l1d_ms", med("uarch.l1d"), "ms");
  report.add("uarch.tlb_ms", med("uarch.tlb"), "ms");
  report.add("uarch.predictor_ms", med("uarch.predictor"), "ms");
  report.add("uarch.l1d_miss_ratio", ratio(l1_miss, l1_acc), "ratio");
  report.add("uarch.llc_miss_ratio", ratio(llc_miss, llc_acc), "ratio");
  report.add("uarch.tlb_miss_ratio", ratio(tlb_miss, tlb_acc), "ratio");
  report.add("uarch.mispredict_ratio", ratio(mispred, cond), "ratio");
  report.add("hpc.measure_ms", measure, "ms");
  report.add("hpc.replay_ms", med("hpc.replay"), "ms");
  report.add("hpc.normalize_ms",
             med("hpc.memory_session_stable") - med("hpc.memory_canonical"),
             "ms");
  report.add("core.acquire_overhead_ms", campaign_ms_per_sample - measure, "ms");
  report.add("stats.evaluate_ms", med("stats.evaluate_probe"), "ms");
  report.add("analysis.lint_ms", med("analysis.lint"), "ms");
}

void write_trace(const Options& options, const Tracer& tracer, Report& report) {
  std::filesystem::create_directories(options.trace_dir);
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  tracer.write_json(path);
  report.note("spans " + std::to_string(tracer.size()) + " written to " + path);
}

}  // namespace perfbench
