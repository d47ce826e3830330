// The four benchmark workloads and the traced per-layer probes.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/sweep.hpp"
#include "data/dataset.hpp"
#include "nn/model.hpp"

namespace perfbench {

// --- Acquisition workloads (mnist-dd, cifar-cf, mnist-sweep) ------------

/// The fixed shape of one acquisition workload's job.
struct AcquisitionSpec {
  bool cifar = false;
  sce::nn::KernelMode mode = sce::nn::KernelMode::kDataDependent;
  std::size_t samples_per_category = 8;
  std::size_t shards = 1;
  std::size_t threads = 1;
  /// Samples per TVLA population run after the campaign (0 = none).
  std::size_t fvr_per_population = 0;
  /// Run Campaign::sweep over the PMU grid instead of Campaign::run.
  bool sweep = false;
  /// Restrict the test set to this many images per class (0 = all), so
  /// inputs repeat within a job.
  std::size_t images_per_class = 0;
};

/// Shape of a named acquisition workload; throws on an unknown name.
AcquisitionSpec acquisition_spec(const std::string& workload);

/// Everything an acquisition job needs, built once by set_up().
struct Bench {
  AcquisitionSpec spec;
  std::uint64_t seed = 1;
  std::vector<int> categories;
  sce::nn::TrainedModel trained;
  sce::data::Dataset dataset;
  sce::hpc::SimulatedPmuConfig pmu;
  std::vector<sce::core::SweepPoint> grid;
  std::unique_ptr<sce::hpc::SimulatedPmuFactory> factory;
  std::unique_ptr<sce::core::Campaign> campaign;
};

/// Model load from the weight cache, plan and instrument construction and
/// two warm-up measurements.
std::unique_ptr<Bench> set_up(const Options& options);

/// One verdict-producing job: the workload's acquisition call plus its
/// statistics.
struct JobOutcome {
  double ms = 0.0;
  std::size_t samples = 0;  ///< eight-event samples delivered into results
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// All digested events and the significant cache-misses pairs.
  std::string fingerprint;
  /// The stream_events() part only, which every job must repeat.
  std::string stream_fingerprint;
  sce::core::SweepStats sweep;
};
JobOutcome run_job(Bench& bench, Tracer* tracer, std::uint64_t job_id);

Report run_acquisition(const Options& options);

// --- Service workload (service-mixed) ----------------------------------

/// Closed-loop service measurements (shared by the service workload and
/// the service probe of the traced acquisition runs).
struct ServiceLoopResult {
  std::vector<double> cached_ms;
  std::vector<double> fresh_ms;
  std::vector<double> submit_ms;
  /// Samples per second of each completed client cycle (one executed job
  /// and the cache hits before it).
  std::vector<double> cycle_rates;
  std::size_t submissions = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;  ///< submissions that did not end with a report
  std::size_t samples = 0;
  double elapsed_s = 0.0;
  double setup_s = 0.0;
  double rss_kb_per_job = 0.0;
  std::size_t measurements_executed = 0;
  std::size_t cache_hits = 0;
  std::size_t threads = 0;
  /// VmHWM in kB once the loop had completed a fixed number of jobs (0
  /// if it never did).
  std::uint64_t peak_rss_kb = 0;
  std::string warm_fingerprint;
  std::vector<std::string> check_failures;
};

struct ServiceLoopConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t setups = 1;  ///< set-ups timed (median reported)
  std::string work_dir;
  Tracer* tracer = nullptr;
};
ServiceLoopResult run_service_loop(const ServiceLoopConfig& config);

Report run_service(const Options& options);

/// The model and the dataset of the service workload's warm-up job 0.
sce::nn::Sequential service_model(std::uint64_t seed);
sce::data::Dataset service_dataset(std::uint64_t seed);
/// The service.* per-layer metrics of one loop.
void add_service_layer_metrics(const ServiceLoopResult& loop, Report& report);

// --- Traced per-layer probes -------------------------------------------

/// The slots a probe decomposes: the first `slots` measurements of a
/// campaign over `categories`, in the interleaved order Campaign::run
/// acquires them.
struct LayerInputs {
  const sce::nn::Sequential* model = nullptr;
  const sce::data::Dataset* dataset = nullptr;
  std::vector<int> categories;
  sce::nn::KernelMode mode = sce::nn::KernelMode::kDataDependent;
  sce::hpc::SimulatedPmuConfig pmu;
  std::size_t slots = 8;
};

/// Time each layer's public calls over the probe slots, check that the
/// decomposition matches the live measurement, and add the per-layer
/// metrics to `report`.
void probe_layers(const LayerInputs& inputs, Tracer& tracer, Report& report);

/// Write the tracer's spans under options.trace_dir.
void write_trace(const Options& options, const Tracer& tracer,
                 Report& report);

}  // namespace perfbench
