// Shared pieces of the repository benchmark: clocks, process counters,
// span tracing, metric collection and result digests.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/evaluator.hpp"
#include "hpc/simulated_pmu.hpp"
#include "nn/zoo.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) {
  return seconds_since(t0) * 1e3;
}

/// Command-line options shared by every workload, and the fixed paths
/// (relative to the checkout root) the benchmark reads and writes.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Weight cache for the trained reference models.
  std::string cache_dir = ".bench_build/models";
  /// Scratch space for service sockets and checkpoints.
  std::string work_dir = ".bench_build/work";
  /// Where the traced run writes its spans.
  std::string trace_dir = ".bench_build/traces";
  /// Pinned digests of the default seed.
  std::string pinned_path = "perfbench/pinned.json";
};

/// The seed every pinned digest was taken with.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Logical CPUs available to this process.
std::size_t nproc();
/// Clamp a requested thread count to [1, nproc()].
std::size_t threads_within_nproc(std::size_t wanted);

/// A field of /proc/self/status in kB (VmHWM, VmRSS) or as a plain count
/// (Threads); 0 when absent.
std::uint64_t proc_status_field(const std::string& field);

/// Median of a sample (0 for an empty one).
double median(std::vector<double> values);

/// Latency tail: the highest percentile with at least ten samples beyond
/// it.  `percentile` is 0 when there are fewer than eleven samples.
struct Tail {
  double value_ms = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail latency_tail(const std::vector<double>& latencies_ms);

// --- Spans -------------------------------------------------------------

/// One timed call into a layer, recorded from the benchmark side.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  long parent = -1;      ///< index of the enclosing span, -1 at the root
  std::uint64_t id = 0;  ///< slot or job id the span belongs to
};

/// In-memory span recorder; written out once, when the run ends.
/// Thread-safe for concurrent begin/end from the service clients.
class Tracer {
 public:
  Tracer();
  long begin(std::string name, long parent = -1, std::uint64_t id = 0);
  void end(long span);
  /// Durations in ms of every closed span with this name.
  std::vector<double> durations_ms(const std::string& name) const;
  std::size_t size() const;
  void write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  mutable std::mutex mutex_;
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class Scoped {
 public:
  Scoped(Tracer* tracer, std::string name, long parent = -1,
         std::uint64_t id = 0)
      : tracer_(tracer),
        index_(tracer ? tracer->begin(std::move(name), parent, id) : -1) {}
  ~Scoped() {
    if (tracer_) tracer_->end(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  long index() const { return index_; }

 private:
  Tracer* tracer_;
  long index_;
};

// --- Results -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the contract's four keys plus human-readable
/// notes printed before the final JSON line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Record a failed correctness check (the run still completes).
  void fail_check(const std::string& what);
  void print() const;
};

// --- Correctness digests -------------------------------------------------

/// The events whose samples are digested.  branch-misses, cycles,
/// bus-cycles and ref-cycles are left out: branch sites are identified by
/// the addresses of function-local statics, so those counts move with
/// ASLR from process to process.
const std::vector<sce::hpc::HpcEvent>& digest_events();
/// The digested events that depend only on the executed instruction
/// stream.  cache-references and cache-misses also depend on the
/// within-page offsets of the heap buffers the kernels touch, so they
/// repeat across processes that allocate in the same order, but not
/// across jobs of one process once earlier jobs have reshaped the heap.
const std::vector<sce::hpc::HpcEvent>& stream_events();

/// Canonical text of a campaign's samples of `events`, plus (when asked)
/// the set of category pairs whose cache-misses distributions differ at
/// the verdict's alpha.
std::string campaign_fingerprint(const sce::core::CampaignResult& result,
                                 const sce::core::LeakageAssessment& verdict,
                                 const std::vector<sce::hpc::HpcEvent>& events,
                                 bool significant_pairs);
std::string digest_hex(const std::string& text);

/// Pinned digest of (workload, default seed), "" when none is pinned.
std::string pinned_digest(const Options& options);

// --- Workload inputs ---------------------------------------------------

/// Four distinct categories of ten, picked by the seed.
std::vector<int> pick_categories(std::uint64_t seed);
/// PMU environment-noise seed derived from the workload seed.
std::uint64_t pmu_noise_seed(std::uint64_t seed);

/// Load a trained reference model from the weight cache (training it on
/// the first use of a cache).
sce::nn::TrainedModel load_model(const Options& options, bool cifar);

}  // namespace perfbench
