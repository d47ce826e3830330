// Simulated Performance Monitoring Unit.
//
// Substitutes for the Intel PMU the paper reads through `perf`: the
// instrumented CNN kernels stream their dynamic trace into this sink,
// whose uarch::SimulatorSink base drives the cache hierarchy, branch
// predictor and TLB models; this class derives the same eight counters
// `perf stat` reports from them.
//
// An EnvironmentModel adds, per measurement, the contribution of
// everything the real evaluator cannot separate from the workload —
// framework/runtime code, other processes, OS jitter.  Each event gets a
// fixed base count plus Gaussian noise.  The defaults are calibrated so
// that the *ratios* between events match the paper's Figure 2(b) dump
// (≈1000x smaller absolute scale, since the simulated workload is a
// from-scratch kernel rather than a full TensorFlow stack) and so that
// noise magnitudes reproduce the paper's t-value regimes: cache-misses
// strongly input-dependent, branches marginally so.
#pragma once

#include <array>

#include "hpc/counter_provider.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/core_model.hpp"
#include "uarch/hierarchy.hpp"
#include "uarch/simulator_sink.hpp"
#include "uarch/trace_buffer.hpp"
#include "util/rng.hpp"

namespace sce::hpc {

/// Fixed base count + Gaussian jitter added per measurement per event.
struct EnvironmentSpec {
  double base = 0.0;
  double stddev = 0.0;
};

inline bool operator==(const EnvironmentSpec& a, const EnvironmentSpec& b) {
  return a.base == b.base && a.stddev == b.stddev;
}
inline bool operator!=(const EnvironmentSpec& a, const EnvironmentSpec& b) {
  return !(a == b);
}

struct SimulatedPmuConfig {
  uarch::HierarchyConfig hierarchy{};
  uarch::PredictorKind predictor = uarch::PredictorKind::kGShare;
  uarch::CoreModelConfig core{};

  /// Flush caches/TLB/predictor when a measurement starts — models each
  /// classification running against a cold microarchitectural state (a
  /// fresh `perf stat` invocation around one classification, with the
  /// intervening work of other tenants evicting the model's footprint).
  bool cold_start_per_measurement = true;

  /// Canonical first-touch page mapping: each distinct 4 KiB page of the
  /// traced addresses is assigned a frame in first-touch order, mimicking
  /// an OS physical allocator handing a fresh process consecutive frames
  /// (caches below L1 are physically indexed on real parts).  This removes
  /// page *numbers* — and with them ASLR — from the simulated counters,
  /// but keeps each address's low 12 bits.  Those offsets are where the
  /// allocator placed each buffer within its page, so the counters are a
  /// function of the access sequence *and* of the process's allocation
  /// history: any allocation of a different size earlier in the process
  /// can move them.  Growing SimulatedPmu alone by 16 unused bytes is
  /// enough to change the cache counts of a whole MNIST campaign
  /// (tests/hpc/footprint_test.cpp pins the footprint for that reason).
  /// The mapping resets whenever the caches are cold-started.
  bool normalize_addresses = true;

  /// If nonzero, evict one random line from every level each time this
  /// many line accesses complete (models co-tenant cache interference).
  std::size_t pollution_period = 0;

  /// Per-event environment contribution (see file comment). Indexed by
  /// HpcEvent order.
  std::array<EnvironmentSpec, kNumEvents> environment =
      default_environment();
  std::uint64_t noise_seed = 99;

  static std::array<EnvironmentSpec, kNumEvents> default_environment();
  /// Environment calibrated for ~5M-instruction workloads (e.g. the
  /// CIFAR-scale model): the runtime/framework contribution and its jitter
  /// grow with execution time, so both bases and noise are scaled up.
  static std::array<EnvironmentSpec, kNumEvents> large_workload_environment();
  /// Zero environment: counters reflect the workload alone (used by unit
  /// tests and the microarchitecture ablations).
  static std::array<EnvironmentSpec, kNumEvents> no_environment();
};

/// Field-wise equality; the sweep engine uses it to deduplicate grid
/// points that drive identical models.
inline bool operator==(const SimulatedPmuConfig& a,
                       const SimulatedPmuConfig& b) {
  return a.hierarchy == b.hierarchy && a.predictor == b.predictor &&
         a.core == b.core &&
         a.cold_start_per_measurement == b.cold_start_per_measurement &&
         a.normalize_addresses == b.normalize_addresses &&
         a.pollution_period == b.pollution_period &&
         a.environment == b.environment && a.noise_seed == b.noise_seed;
}
inline bool operator!=(const SimulatedPmuConfig& a,
                       const SimulatedPmuConfig& b) {
  return !(a == b);
}

/// Defined next to the simulator that accumulates it.
using uarch::ArchCounts;

/// The one place the eight perf events are derived from architectural
/// counts.  SimulatedPmu::workload_counts() routes through this, and the
/// sweep engine calls it directly when it composes a sample from a
/// memory-class replay and a branch-class replay — keeping the two paths
/// bit-identical by construction.
CounterSample assemble_workload_counts(const uarch::CoreModelConfig& core,
                                       const ArchCounts& counts);

/// The environment overlay applied by SimulatedPmu::read(): one
/// truncated-normal draw per nonzero-spec event, in all_events() order,
/// from `rng`.  Exposed so replay drivers can reproduce a keyed
/// measurement's noise with Rng(mix64(noise_seed, key)).
void apply_environment(CounterSample& sample,
                       const std::array<EnvironmentSpec, kNumEvents>& specs,
                       util::Rng& rng);

/// The counter provider over a uarch::SimulatorSink: the sink half (the
/// event methods, hierarchy(), predictor(), memory_cycles()) is the live
/// simulator the kernels write into; this class adds the measurement
/// protocol, keys and environment noise.
class SimulatedPmu final : public CounterProvider,
                           public uarch::SimulatorSink {
 public:
  explicit SimulatedPmu(SimulatedPmuConfig config = {});

  // --- CounterProvider ---
  std::string name() const override { return "simulated-pmu"; }
  std::vector<HpcEvent> supported_events() const override;
  void start() override;
  void stop() override;
  CounterSample read() override;
  /// Keyed mode: the next start() reseeds the environment-noise and
  /// pollution streams from mix64(noise_seed, key), making the
  /// measurement's stochastic overlay a pure function of the key.  The
  /// key persists until replaced, so a retried measurement with a fresh
  /// key draws fresh (but still reproducible) noise.
  bool set_measurement_key(std::uint64_t key) override;

  /// The trace sink kernels should write into (this object itself).
  uarch::TraceSink& sink() { return *this; }

  // --- Trace replay ----------------------------------------------------

  /// Feed a recorded trace (or one component class of it) into the
  /// running measurement, as if the kernels had streamed it live.  When
  /// this measurement is cold-started with address normalization on — the
  /// reproducibility default — the buffer's canonical addresses are
  /// exactly what normalization would produce, so the per-access page
  /// lookup is skipped; otherwise the trace replays in its session-stable
  /// address space through the ordinary normalization path.  Either way
  /// the resulting counts are bit-identical to the live run that was
  /// recorded (tests/hpc/replay_test.cpp).  One trace per measurement,
  /// mirroring the campaign's one-classification-per-measurement shape.
  void consume(const uarch::TraceBuffer& trace,
               uarch::ReplayClass cls = uarch::ReplayClass::kAll);

  /// Convenience: start(), consume(trace), stop(), read() — one full
  /// replayed measurement under the current measurement key.
  CounterSample measure_trace(
      const uarch::TraceBuffer& trace,
      uarch::ReplayClass cls = uarch::ReplayClass::kAll);

  /// Architectural counts of the current/last measurement, without the
  /// environment overlay (for tests and ablations).
  CounterSample workload_counts() const;

 private:
  SimulatedPmuConfig config_;
  /// Potentially overlapping so that the flag below sits in its tail
  /// padding (tests/hpc/footprint_test.cpp pins sizeof).
  [[no_unique_address]] util::Rng noise_rng_;
  /// measurement_key_ is valid when set.
  bool has_measurement_key_ = false;
  std::uint64_t measurement_key_ = 0;
};

}  // namespace sce::hpc
