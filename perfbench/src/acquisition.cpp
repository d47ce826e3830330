// Acquisition workloads: mnist-dd (Campaign::run + evaluate, the paper's
// Table 1 path), cifar-cf (sharded constant-flow campaign + TVLA screen)
// and mnist-sweep (record-once/replay-many PMU grid).
#include <cstdio>
#include <stdexcept>

#include "common.hpp"
#include "core/fixed_vs_random.hpp"
#include "nn/plan.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = sce::core;
namespace hpc = sce::hpc;
namespace nn = sce::nn;
namespace uarch = sce::uarch;

namespace {

/// Set-ups timed per run; setup_s is their median.
constexpr std::size_t kSetups = 11;

/// 2 L1D geometries x 2 L1D replacement policies x 2 predictors x
/// {cold and pollution-free, polluted}: eight memory classes (four of them
/// cacheable) and two branch classes.
std::vector<core::SweepPoint> sweep_grid(const hpc::SimulatedPmuConfig& base) {
  std::vector<core::SweepPoint> grid;
  const struct {
    const char* tag;
    std::size_t bytes, ways;
  } geometries[] = {{"l1-32k8", 32 * 1024, 8}, {"l1-16k4", 16 * 1024, 4}};
  const struct {
    const char* tag;
    uarch::ReplacementPolicy policy;
  } policies[] = {{"plru", uarch::ReplacementPolicy::kTreePlru},
                  {"lru", uarch::ReplacementPolicy::kLru}};
  const struct {
    const char* tag;
    uarch::PredictorKind kind;
  } predictors[] = {{"gshare", uarch::PredictorKind::kGShare},
                    {"bimodal", uarch::PredictorKind::kBimodal}};
  const struct {
    const char* tag;
    std::size_t period;
  } pollution[] = {{"quiet", 0}, {"polluted", 64}};
  for (const auto& g : geometries)
    for (const auto& r : policies)
      for (const auto& p : predictors)
        for (const auto& q : pollution) {
          core::SweepPoint point;
          point.label = std::string(g.tag) + "/" + r.tag + "/" + p.tag + "/" +
                        q.tag;
          point.pmu = base;
          point.pmu.hierarchy.l1d.size_bytes = g.bytes;
          point.pmu.hierarchy.l1d.associativity = g.ways;
          point.pmu.hierarchy.l1d.policy = r.policy;
          point.pmu.predictor = p.kind;
          point.pmu.pollution_period = q.period;
          grid.push_back(std::move(point));
        }
  return grid;
}

/// Exact text of a double, for fingerprints.
std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

AcquisitionSpec acquisition_spec(const std::string& workload) {
  AcquisitionSpec spec;
  if (workload == "mnist-dd") {
    // More samples per category than the ~40 test images per class, so
    // inputs repeat as they do at paper scale.
    spec.samples_per_category = 48;
  } else if (workload == "cifar-cf") {
    spec.cifar = true;
    spec.mode = nn::KernelMode::kConstantFlow;
    spec.samples_per_category = 8;
    spec.shards = 2;
    spec.threads = 2;
    spec.fvr_per_population = 8;
  } else if (workload == "mnist-sweep") {
    spec.sweep = true;
    spec.samples_per_category = 2;
    spec.threads = 2;
    spec.images_per_class = 1;
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  spec.threads = threads_within_nproc(spec.threads);
  return spec;
}

std::unique_ptr<Bench> set_up(const Options& options) {
  auto bench = std::make_unique<Bench>();
  bench->spec = acquisition_spec(options.workload);
  bench->seed = options.seed;
  bench->categories = pick_categories(options.seed);
  bench->trained = load_model(options, bench->spec.cifar);
  bench->dataset =
      bench->spec.images_per_class == 0
          ? bench->trained.test_set
          : bench->trained.test_set.balanced_subset(bench->spec.images_per_class);
  bench->pmu.environment =
      bench->spec.cifar ? hpc::SimulatedPmuConfig::large_workload_environment()
                        : hpc::SimulatedPmuConfig::default_environment();
  bench->pmu.noise_seed = pmu_noise_seed(options.seed);
  if (bench->spec.sweep) bench->grid = sweep_grid(bench->pmu);
  bench->factory = std::make_unique<hpc::SimulatedPmuFactory>(bench->pmu);
  bench->campaign = std::make_unique<core::Campaign>(
      bench->trained.model, bench->dataset, *bench->factory);

  // Plan and instrument construction plus two warm-up measurements.
  const auto& first = *bench->dataset.examples_of(bench->categories.front()).front();
  nn::Tensor staged;
  nn::image_to_tensor_into(first.image, staged);
  nn::InferencePlan plan(bench->trained.model, staged.shape());
  hpc::SimulatedPmu pmu(bench->pmu);
  for (int w = 0; w < 2; ++w) {
    pmu.start();
    (void)plan.run(staged, pmu, bench->spec.mode);
    pmu.stop();
    (void)pmu.read();
  }
  return bench;
}

JobOutcome run_job(Bench& bench, Tracer* tracer, std::uint64_t job_id) {
  const AcquisitionSpec& spec = bench.spec;
  JobOutcome out;
  std::string text, stream;
  const Clock::time_point t0 = Clock::now();
  Scoped job(tracer, "core.job", -1, job_id);
  if (spec.sweep) {
    core::SweepConfig cfg;
    cfg.categories = bench.categories;
    cfg.samples_per_category = spec.samples_per_category;
    cfg.kernel_mode = spec.mode;
    cfg.num_threads = spec.threads;
    cfg.grid = bench.grid;
    core::SweepResult result;
    {
      Scoped span(tracer, "core.sweep", job.index(), job_id);
      result = bench.campaign->sweep(cfg);
    }
    out.sweep = result.stats;
    for (const core::SweepPointResult& point : result.points) {
      core::LeakageAssessment verdict;
      {
        Scoped span(tracer, "stats.evaluate", job.index(), job_id);
        verdict = core::evaluate(point.result);
      }
      const auto& diag = point.result.diagnostics;
      out.samples += diag.measurements_recorded;
      out.attempted += diag.measurements_attempted;
      out.failed += diag.failed_measurements;
      text += point.label + "=" +
              campaign_fingerprint(point.result, verdict, digest_events(), true) +
              "\n";
      stream += point.label + "=" +
                campaign_fingerprint(point.result, verdict, stream_events(), false) +
                "\n";
    }
  } else {
    core::CampaignConfig cfg;
    cfg.categories = bench.categories;
    cfg.samples_per_category = spec.samples_per_category;
    cfg.kernel_mode = spec.mode;
    cfg.num_shards = spec.shards;
    cfg.num_threads = spec.threads;
    core::CampaignResult result;
    {
      Scoped span(tracer, "core.campaign_run", job.index(), job_id);
      result = bench.campaign->with_config(cfg).run();
    }
    core::LeakageAssessment verdict;
    {
      Scoped span(tracer, "stats.evaluate", job.index(), job_id);
      verdict = core::evaluate(result);
    }
    const auto& diag = result.diagnostics;
    out.samples += diag.measurements_recorded;
    out.attempted += diag.measurements_attempted;
    out.failed += diag.failed_measurements;
    text = campaign_fingerprint(result, verdict, digest_events(), true);
    stream = campaign_fingerprint(result, verdict, stream_events(), false);

    if (spec.fvr_per_population > 0) {
      core::FixedVsRandomConfig fvr;
      fvr.fixed_category = bench.categories.front();
      fvr.samples_per_population = spec.fvr_per_population;
      fvr.kernel_mode = spec.mode;
      fvr.random_seed = sce::util::mix64(bench.seed, 0xF1ED);
      fvr.num_shards = spec.shards;
      fvr.num_threads = spec.threads;
      core::FixedVsRandomResult screen;
      {
        Scoped span(tracer, "core.fixed_vs_random", job.index(), job_id);
        screen = bench.campaign->fixed_vs_random(fvr);
      }
      const std::size_t n = 2 * spec.fvr_per_population;
      out.samples += n;
      out.attempted += n;
      const auto screen_text = [&](const std::vector<hpc::HpcEvent>& events) {
        std::string t = "\nfixed-vs-random:";
        for (hpc::HpcEvent e : events) {
          const auto& r = screen.of(e);
          t += hpc::to_string(e) + "=" + exact(r.full.t) + "/" +
               (r.leaks ? "leak" : "pass") + ";";
        }
        return t;
      };
      text += screen_text(digest_events());
      stream += screen_text(stream_events());
    }
  }
  out.fingerprint = std::move(text);
  out.stream_fingerprint = std::move(stream);
  out.ms = ms_since(t0);
  return out;
}

Report run_acquisition(const Options& options) {
  Report report;
  // Train the weight cache once, outside every timed region.
  (void)load_model(options, acquisition_spec(options.workload).cifar);

  std::vector<double> setups;
  std::unique_ptr<Bench> bench;
  for (std::size_t i = 0; i < kSetups; ++i) {
    bench.reset();
    const Clock::time_point t0 = Clock::now();
    bench = set_up(options);
    setups.push_back(seconds_since(t0));
  }

  std::vector<double> job_ms, job_rates;
  std::size_t samples = 0, same_cache_counts = 1;
  std::string fingerprint, stream;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  for (std::uint64_t job = 0; job == 0 || elapsed < options.seconds; ++job) {
    JobOutcome out = run_job(*bench, nullptr, job);
    elapsed = seconds_since(t0);
    job_ms.push_back(out.ms);
    job_rates.push_back(static_cast<double>(out.samples) / (out.ms / 1e3));
    samples += out.samples;
    report.attempted += out.attempted;
    report.failed += out.failed;
    if (job == 0) {
      fingerprint = out.fingerprint;
      stream = out.stream_fingerprint;
      continue;
    }
    if (out.stream_fingerprint != stream)
      report.fail_check("job " + std::to_string(job) +
                        " executed a different instruction stream from job 0");
    same_cache_counts += out.fingerprint == fingerprint ? 1 : 0;
  }

  // A sharded campaign's worker threads allocate from heap arenas whose
  // state depends on which shard ran there before, so its cache counters
  // differ from process to process; only its stream events are pinned.
  const AcquisitionSpec& spec = bench->spec;
  const bool sharded = spec.shards > 1;
  const std::string digest = digest_hex(sharded ? stream : fingerprint);
  const std::string pinned = pinned_digest(options);
  report.note("workload " + options.workload + " seed " +
              std::to_string(options.seed) +
              (sharded ? " stream-event digest " : " digest ") + digest +
              (pinned.empty() ? " (no pinned digest for this seed)"
                              : digest == pinned ? " (matches pinned)"
                                                 : " (pinned " + pinned + ")"));
  if (!pinned.empty() && digest != pinned)
    report.fail_check("digest " + digest + " differs from pinned " + pinned);

  std::string categories;
  for (int c : bench->categories) categories += std::to_string(c) + " ";
  report.note("nproc " + std::to_string(nproc()) + ", threads " +
              std::to_string(spec.threads) + ", shards " +
              std::to_string(spec.shards) + ", categories " + categories +
              ", jobs " + std::to_string(job_ms.size()) + " (" +
              std::to_string(same_cache_counts) +
              " with the cache counters of job 0)");
  report.note("failed_ratio " +
              exact(report.attempted
                        ? static_cast<double>(report.failed) /
                              static_cast<double>(report.attempted)
                        : 0.0));

  // Throughput is the whole loop's ratio.  The host alternates between a
  // fast and a slow state about 1.5x apart every second or so, so a median
  // over short groups or jobs lands on either state, while the whole-loop
  // ratio averages them.
  report.note("samples_per_s over the median job " + exact(median(job_rates)) +
              "; jobs_per_s " +
              exact(static_cast<double>(job_ms.size()) / elapsed) +
              ", job_p50_ms " + exact(median(job_ms)));

  report.add("setup_s", median(setups), "s");
  report.add("samples_per_s", static_cast<double>(samples) / elapsed, "1/s");
  report.add("peak_rss_mb",
             static_cast<double>(proc_status_field("VmHWM")) / 1024.0, "MB");
  return report;
}

}  // namespace perfbench
