// EvaluationServer: the multi-tenant leakage-evaluation service core.
//
// Wraps the Campaign API in a long-running scheduler:
//
//   submit(model, config)
//     └─ admission: JobConfig::validate() (structured ValidationError
//        relay) + the static lint gate (analysis::lint — the same
//        library call behind tools/leakage_lint)
//     └─ result cache: keyed by (nn::model_digest, config_digest); a hit
//        returns the cached report byte-identically, executing zero
//        campaign measurements
//     └─ priority queue: jobs wait in (priority desc, arrival asc)
//        order and execute as campaign "legs" on the shared
//        util::ThreadPool (one long-running executor loop per worker)
//
// Preemption is cooperative and checkpoint-backed: when a submission
// outranks the lowest-priority running job and no executor is free, the
// victim's leg CancelToken is tripped; the campaign flushes a durable
// CRC-framed checkpoint (PR 7 machinery) and returns Partial, the job
// re-enters the queue as kPreempted, and a later leg resumes it with
// Campaign::resume — bit-identical to an uncontended run at any thread
// count.  User cancels and server shutdown ride the same token
// hierarchy (server token ⊃ job token ⊃ leg token), so tripping any
// level stops exactly the intended scope.
//
// The server is transport-agnostic; socket.hpp adds the wire front end.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "hpc/instrument_factory.hpp"
#include "nn/model.hpp"
#include "service/cache.hpp"
#include "service/job.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace sce::service {

struct ServerConfig {
  /// Executor slots = workers on the shared ThreadPool = campaigns that
  /// may run concurrently.
  std::size_t executors = 2;
  /// Directory for durable job checkpoints (created on demand).  Names
  /// derive from the same digest pair that keys the result cache:
  /// <model8>-<config8>-job<id>.ckpt.
  std::string work_dir = ".sce_service";
  std::size_t cache_capacity = 64;

  // --- Admission gate ---------------------------------------------------
  /// Reject models whose lint verdict reaches this level (nullopt = no
  /// verdict gate — the service's default job is *measuring* leaky
  /// models, so only opt-in deployments turn this on).
  std::optional<analysis::Verdict> admit_fail_on;
  /// Reject models with layers the analyzer cannot reason about — a
  /// layer with no symbolic kernel model gets no derived contract, so no
  /// leakage claim can be made either way.
  bool admit_fail_on_undeclared = true;
  /// Also cross-validate contracts against the trace oracle at
  /// admission (slow; off by default).
  bool admit_cross_check = false;

  /// Mints the per-job instrument factory; called once per executed leg
  /// so every leg gets fresh rigs.  Default: SimulatedPmuFactory.
  std::function<std::unique_ptr<hpc::InstrumentFactory>()> instruments;

  /// Campaign progress granularity in recorded measurements (also the
  /// preemption latency bound: legs poll their token at chunk barriers
  /// and between measurement attempts).
  std::size_t progress_every = 1;
};

struct ServerStats {
  std::size_t submissions = 0;
  std::size_t rejected = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  std::size_t failed = 0;
  /// Jobs answered straight from the result cache.
  std::size_t cache_completions = 0;
  /// Evictions performed for priority pressure (checkpoint flushes).
  std::size_t preemptions = 0;
  /// Campaign measurements actually executed across all jobs.
  std::size_t measurements_executed = 0;
};

class EvaluationServer {
 public:
  explicit EvaluationServer(ServerConfig config = {});
  /// Shuts down: cancels queued and running jobs, drains executors.
  ~EvaluationServer();

  EvaluationServer(const EvaluationServer&) = delete;
  EvaluationServer& operator=(const EvaluationServer&) = delete;

  /// Admit (or reject) a job.  Never throws for tenant mistakes — a
  /// validation or lint failure yields a job in kRejected state whose
  /// status carries the structured cause; a cache hit yields a job
  /// already in kCompleted state with from_cache set.  Returns the job
  /// id in every case.  Throws Error only for server-side faults
  /// (shutdown in progress).
  std::uint64_t submit(nn::Sequential model, JobConfig config);

  /// Snapshot a job's state; throws InvalidArgument for unknown ids.
  JobStatus status(std::uint64_t id) const;

  /// Block until the job reaches a terminal state.
  JobStatus wait(std::uint64_t id);

  /// Block until progress_seq exceeds `last_seq` or the job is terminal
  /// — the long-poll primitive behind the stream-progress verb.
  JobStatus wait_progress(std::uint64_t id, std::uint64_t last_seq);

  /// Cooperatively cancel a job.  Returns false if it was already
  /// terminal.  A queued job cancels immediately; a running one stops at
  /// its next safe point (flushing a checkpoint it never needs again).
  bool cancel(std::uint64_t id, const std::string& why = "client cancel");

  /// The final report document of a completed job (byte-identical across
  /// cache hits of the same (model, config) pair).  Throws
  /// InvalidArgument unless state == kCompleted.
  std::string report(std::uint64_t id) const;

  CacheStats cache_stats() const { return cache_.stats(); }
  ServerStats stats() const;

  /// Stop accepting work, cancel everything in flight, join executors.
  /// Idempotent; also run by the destructor.
  void shutdown();

  const ServerConfig& config() const { return config_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    std::uint64_t seq = 0;  ///< arrival order, ties in the ready queue
    JobState state = JobState::kQueued;
    JobConfig config;
    nn::Sequential model;
    data::Dataset dataset;
    std::string model_digest;
    std::string config_digest;
    std::string checkpoint_path;
    bool has_checkpoint = false;
    bool from_cache = false;
    bool preempt_requested = false;
    util::CancelToken job_token;  ///< child of the server token
    util::CancelToken leg_token;  ///< child of job_token, fresh per leg
    std::size_t measurements_recorded = 0;
    std::size_t measurements_target = 0;
    std::size_t measurements_executed = 0;
    std::size_t preemptions = 0;
    std::size_t legs = 0;
    std::uint64_t progress_seq = 0;
    std::string report_json;
    std::string error;
    std::string reject_domain;
    std::string reject_field;
    std::string reject_constraint;
  };

  /// Ready-queue order: highest priority first, then earliest arrival.
  struct ReadyOrder {
    bool operator()(const Job* a, const Job* b) const {
      if (a->config.priority != b->config.priority)
        return a->config.priority > b->config.priority;
      return a->seq < b->seq;
    }
  };

  void executor_loop();
  /// Runs one leg of `job` without holding the mutex; returns to
  /// finish_leg_locked with the outcome.
  void run_leg(Job& job);
  void finish_leg_locked(Job& job, core::CampaignResult result,
                         std::unique_lock<std::mutex>& lock);
  void fail_job_locked(Job& job, const std::string& why);
  /// Evict the lowest-priority running job if the best ready job
  /// outranks it and every executor is busy.
  void maybe_preempt_locked();
  void bump_locked(Job& job) {
    ++job.progress_seq;
    state_changed_.notify_all();
  }
  JobStatus snapshot_locked(const Job& job) const;
  Job& find_locked(std::uint64_t id);
  const Job& find_locked(std::uint64_t id) const;

  ServerConfig config_;
  ResultCache cache_;
  util::CancelToken server_token_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;     ///< executors sleep here
  std::condition_variable state_changed_;  ///< wait()/wait_progress()
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::set<Job*, ReadyOrder> ready_;
  std::set<Job*> running_;
  ServerStats stats_;

  /// The shared executor pool; every campaign leg of every tenant runs
  /// on one of its workers.  Created last, destroyed first.
  std::unique_ptr<util::ThreadPool> pool_;
};

/// Compose the final report document.  Deterministic: depends only on
/// the digests, the kernel mode and the assessment content, so two runs
/// that produced bit-identical campaign samples render bit-identical
/// reports (what the cache's byte-identity promise rests on).
std::string make_report_json(const std::string& model_digest,
                             const std::string& config_digest,
                             const JobConfig& config,
                             const core::CampaignResult& campaign);

}  // namespace sce::service
