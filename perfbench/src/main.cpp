// Repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --workload prepare
//
// Run from the checkout root: the weight cache, scratch files and traces
// live under .bench_build/, and the pinned digests are read from
// perfbench/pinned.json.
//
// Workloads: mnist-dd, cifar-cf, mnist-sweep, service-mixed.  The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1.  Exit status 0 means the run
// completed; `correct` says whether every output check passed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Slots each traced run decomposes layer by layer.
constexpr std::size_t kProbeSlots = 8;
/// Length of the service probe in the traced acquisition runs.
constexpr double kServiceProbeSeconds = 2.0;

struct LoopTotals {
  double elapsed_s = 0.0;
  std::size_t samples = 0, attempted = 0, failed = 0;
  std::size_t replays = 0, replay_cache_hits = 0, jobs = 0;
};

/// Run jobs back to back for at least `seconds` (and at least one job).
LoopTotals job_loop(Bench& bench, Tracer* tracer, double seconds,
                    std::uint64_t first_job) {
  LoopTotals totals;
  const Clock::time_point t0 = Clock::now();
  do {
    const JobOutcome out = run_job(bench, tracer, first_job + totals.jobs);
    ++totals.jobs;
    totals.samples += out.samples;
    totals.attempted += out.attempted;
    totals.failed += out.failed;
    totals.replays += out.sweep.replays;
    totals.replay_cache_hits += out.sweep.replay_cache_hits;
    totals.elapsed_s = seconds_since(t0);
  } while (totals.elapsed_s < seconds);
  return totals;
}

double per(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// One mnist-sweep job, traced, so that every traced run reports the
/// sweep's replay accounting.
LoopTotals sweep_probe(const Options& options, Tracer& tracer) {
  Options sweep = options;
  sweep.workload = "mnist-sweep";
  std::unique_ptr<Bench> bench = set_up(sweep);
  return job_loop(*bench, &tracer, 0.0, 0);
}

/// The traced run: per-layer probes, then the workload's own loop run
/// untraced and traced for half the time each (their throughput
/// difference is the tracing overhead), then the service layer.
Report run_traced(const Options& options) {
  Report report;
  Tracer tracer;
  const std::string work_dir =
      options.work_dir + "/traced-" + std::to_string(::getpid());
  double untraced_sps = 0.0, traced_sps = 0.0;
  std::size_t attempted = 0, recorded = 0, failed = 0;
  LoopTotals sweep;  // the sweep jobs' replay accounting

  if (options.workload == "service-mixed") {
    const sce::nn::Sequential model = service_model(options.seed);
    const sce::data::Dataset dataset = service_dataset(options.seed);
    LayerInputs in;
    in.model = &model;
    in.dataset = &dataset;
    in.categories = pick_categories(options.seed);
    in.slots = kProbeSlots;
    probe_layers(in, tracer, report);

    ServiceLoopConfig config;
    config.seed = options.seed;
    config.seconds = options.seconds / 2;
    config.work_dir = work_dir;
    const ServiceLoopResult plain = run_service_loop(config);
    config.tracer = &tracer;
    const ServiceLoopResult traced = run_service_loop(config);
    untraced_sps = per(static_cast<double>(plain.samples), plain.elapsed_s);
    traced_sps = per(static_cast<double>(traced.samples), traced.elapsed_s);
    for (const ServiceLoopResult* loop : {&plain, &traced}) {
      for (const std::string& failure : loop->check_failures)
        report.fail_check(failure);
      attempted += loop->submissions;
      recorded += loop->completed;
      failed += loop->failed;
    }
    add_service_layer_metrics(traced, report);
  } else {
    (void)load_model(options, acquisition_spec(options.workload).cifar);
    std::unique_ptr<Bench> bench = set_up(options);
    LayerInputs in;
    in.model = &bench->trained.model;
    in.dataset = &bench->dataset;
    in.categories = bench->categories;
    in.mode = bench->spec.mode;
    in.pmu = bench->pmu;
    in.slots = kProbeSlots;
    probe_layers(in, tracer, report);

    const LoopTotals plain = job_loop(*bench, nullptr, options.seconds / 2, 0);
    const LoopTotals traced =
        job_loop(*bench, &tracer, options.seconds / 2, plain.jobs);
    untraced_sps = per(static_cast<double>(plain.samples), plain.elapsed_s);
    traced_sps = per(static_cast<double>(traced.samples), traced.elapsed_s);
    for (const LoopTotals* loop : {&plain, &traced}) {
      attempted += loop->attempted;
      recorded += loop->samples;
      failed += loop->failed;
      if (bench->spec.sweep) {
        sweep.replays += loop->replays;
        sweep.replay_cache_hits += loop->replay_cache_hits;
        sweep.jobs += loop->jobs;
      }
    }

    ServiceLoopConfig config;
    config.seed = options.seed;
    config.seconds = kServiceProbeSeconds;
    config.work_dir = work_dir;
    config.tracer = &tracer;
    const ServiceLoopResult probe = run_service_loop(config);
    for (const std::string& failure : probe.check_failures)
      report.fail_check(failure);
    add_service_layer_metrics(probe, report);
  }
  std::filesystem::remove_all(work_dir);
  if (sweep.jobs == 0) {
    sweep = sweep_probe(options, tracer);
    attempted += sweep.attempted;
    recorded += sweep.samples;
    failed += sweep.failed;
  }

  report.attempted = attempted;
  report.failed = failed;
  report.add("core.attempts_per_sample",
             per(static_cast<double>(attempted), static_cast<double>(recorded)),
             "ratio");
  report.add("core.failed_ratio",
             per(static_cast<double>(failed), static_cast<double>(attempted)),
             "ratio");
  report.add("core.sweep_replays",
             per(static_cast<double>(sweep.replays),
                 static_cast<double>(sweep.jobs)),
             "count");
  report.add("core.sweep_cache_hit_ratio",
             per(static_cast<double>(sweep.replay_cache_hits),
                 static_cast<double>(sweep.replay_cache_hits + sweep.replays)),
             "ratio");
  report.add("trace.overhead_pct",
             100.0 * per(untraced_sps - traced_sps, untraced_sps), "%");
  report.note("untraced samples_per_s " + std::to_string(untraced_sps) +
              ", traced samples_per_s " + std::to_string(traced_sps));
  write_trace(options, tracer, report);
  return report;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <mnist-dd|cifar-cf|mnist-sweep|"
               "service-mixed> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") options.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") options.trace = value == "1";
    else return usage();
  }
  if (options.workload.empty() || options.seconds <= 0.0) return usage();
  try {
    if (options.workload == "prepare") {
      // Train the weight cache in a process of its own: a run that trains
      // leaves a different heap behind than one that loads.
      (void)load_model(options, false);
      (void)load_model(options, true);
      return 0;
    }
    const Report report = options.trace ? run_traced(options)
                          : options.workload == "service-mixed"
                              ? run_service(options)
                              : run_acquisition(options);
    report.print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
