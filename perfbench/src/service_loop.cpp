// service-mixed: an in-process EvaluationServer with two executors behind
// a SocketFrontEnd, driven by a closed loop of two clients.  Each
// submission opens its own AF_UNIX connection and waits for its verdict,
// as `leakage_eval_client submit --wait --print-report` does.  One
// submission in ten carries a dataset seed never seen before (the job
// executes); the rest repeat a seed warmed during set-up (cache hits).
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "common.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace service = sce::service;
using sce::hpc::HpcEvent;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kExecutors = 2;
constexpr std::size_t kWarmSeeds = 4;
constexpr std::size_t kFreshEvery = 10;
constexpr std::size_t kSamplesPerCategory = 4;
/// Completed loop jobs at which peak RSS is read.  The server retains
/// every job, so VmHWM at the end of a timed loop would grow with the
/// host's speed; at a fixed job count it measures the same work each run.
constexpr std::size_t kPeakRssAtJob = 60;

service::JobConfig job_config(const std::vector<int>& categories,
                              std::uint64_t dataset_seed) {
  service::JobConfig config;
  config.dataset.kind = "mnist-like";
  config.dataset.seed = dataset_seed;
  config.categories = categories;
  config.samples_per_category = kSamplesPerCategory;
  config.num_shards = 1;
  config.num_threads = 1;
  return config;
}

/// The report object of a "report" reply, byte for byte.
std::string report_text(const std::string& frame) {
  const std::string key = ",\"report\":";
  const std::size_t at = frame.find(key);
  if (at == std::string::npos || frame.empty() || frame.back() != '}')
    return "";
  return frame.substr(at + key.size(), frame.size() - at - key.size() - 1);
}

/// Digested part of a report: the t-tests of the stream events.  The
/// cache events are left out here: jobs execute on executor threads whose
/// heap arenas depend on which jobs ran there before, so the within-page
/// offsets the simulated caches see differ from process to process.
std::string report_fingerprint(const std::string& report) {
  const sce::util::JsonValue doc = sce::util::parse_json(report);
  std::string text = "measurements=" +
                     std::to_string(doc.at("measurements").as_int()) + ";";
  for (const sce::util::JsonValue& event :
       doc.at("assessment").at("events").items()) {
    const std::string& name = event.at("event").as_string();
    bool digested = false;
    for (HpcEvent e : stream_events())
      digested = digested || sce::hpc::to_string(e) == name;
    if (!digested) continue;
    text += name + ":";
    for (const sce::util::JsonValue& pair : event.at("pairs").items()) {
      text += sce::util::json_number_exact(pair.at("t").as_number()) + ",";
    }
    text += ";";
  }
  return text;
}

struct Submission {
  bool ok = false;
  bool from_cache = false;
  std::size_t measurements = 0;
  double submit_ms = 0.0;
  double total_ms = 0.0;
  std::string report;
  std::string error;
};

/// One client round trip: connect, submit, wait, fetch the report.
Submission submit_and_wait(const std::string& socket_path,
                           const std::string& request, Tracer* tracer,
                           std::uint64_t id) {
  Submission out;
  const Clock::time_point t0 = Clock::now();
  Scoped job(tracer, "service.job", -1, id);
  try {
    service::UnixSocket socket = service::UnixSocket::connect_to(socket_path);
    sce::util::JsonValue reply;
    {
      Scoped span(tracer, "service.submit", job.index(), id);
      reply = sce::util::parse_json(service::request_reply(socket, request));
    }
    out.submit_ms = ms_since(t0);
    if (!reply.at("ok").as_bool()) {
      out.error = reply.at("error").as_string();
      return out;
    }
    const auto job_id = static_cast<std::uint64_t>(reply.at("id").as_int());
    service::JobStatus status = service::parse_status(reply.at("status"));
    if (!status.terminal()) {
      Scoped span(tracer, "service.wait", job.index(), id);
      status = service::parse_status(
          sce::util::parse_json(service::request_reply(
                                    socket, service::make_wait_request(job_id)))
              .at("status"));
    }
    if (status.state != service::JobState::kCompleted) {
      out.error = "job ended " + service::to_string(status.state) + " " +
                  status.error;
      return out;
    }
    {
      Scoped span(tracer, "service.report", job.index(), id);
      out.report = report_text(service::request_reply(
          socket, service::make_report_request(job_id)));
    }
    out.total_ms = ms_since(t0);
    out.from_cache = status.from_cache;
    out.measurements = status.measurements_recorded;
    out.ok = !out.report.empty();
    if (!out.ok) out.error = "empty report";
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// A running server and its socket front end.
struct Service {
  std::unique_ptr<service::EvaluationServer> server;
  std::unique_ptr<service::SocketFrontEnd> front;
  std::thread serving;

  ~Service() {
    if (front) front->stop();
    if (serving.joinable()) serving.join();
    front.reset();
    if (server) server->shutdown();
  }
};

std::uint64_t warm_dataset_seed(std::uint64_t seed, std::size_t i) {
  return 1000 + sce::util::mix64(seed, i) % 100000;
}

}  // namespace

sce::nn::Sequential service_model(std::uint64_t seed) {
  sce::nn::Sequential model = service::build_architecture("mnist-cnn");
  sce::util::Rng init(sce::util::mix64(seed, 0x313D));
  model.initialize(init);
  return model;
}

sce::data::Dataset service_dataset(std::uint64_t seed) {
  return service::make_dataset(
      job_config(pick_categories(seed), warm_dataset_seed(seed, 0)).dataset);
}

ServiceLoopResult run_service_loop(const ServiceLoopConfig& config) {
  ServiceLoopResult out;
  const std::vector<int> categories = pick_categories(config.seed);
  const sce::nn::Sequential model = service_model(config.seed);
  std::vector<std::string> warm_requests;
  for (std::size_t i = 0; i < kWarmSeeds; ++i)
    warm_requests.push_back(service::make_submit_request(
        "mnist-cnn", model,
        job_config(categories, warm_dataset_seed(config.seed, i))));

  std::filesystem::create_directories(config.work_dir);
  const std::string socket_path = config.work_dir + "/service.sock";
  const std::size_t target = categories.size() * kSamplesPerCategory;

  // Set-up: server and front-end start, then the warm set executes once.
  std::unique_ptr<Service> svc;
  std::vector<std::string> warm_reports;
  std::vector<double> setups;
  for (std::size_t s = 0; s < std::max<std::size_t>(config.setups, 1); ++s) {
    svc.reset();
    std::filesystem::remove(socket_path);
    const Clock::time_point t0 = Clock::now();
    svc = std::make_unique<Service>();
    service::ServerConfig server_config;
    server_config.executors = kExecutors;
    server_config.work_dir = config.work_dir + "/server";
    // Larger than every run's distinct jobs, so no warm entry is evicted.
    server_config.cache_capacity = 4096;
    svc->server = std::make_unique<service::EvaluationServer>(server_config);
    svc->front = std::make_unique<service::SocketFrontEnd>(*svc->server,
                                                           socket_path);
    svc->serving = std::thread([f = svc->front.get()] { f->serve(); });
    warm_reports.assign(kWarmSeeds, "");
    std::vector<std::thread> warmers;
    std::vector<Submission> warm(kWarmSeeds);
    for (std::size_t i = 0; i < kWarmSeeds; ++i)
      warmers.emplace_back([&, i] {
        warm[i] = submit_and_wait(socket_path, warm_requests[i], nullptr, i);
      });
    for (std::thread& t : warmers) t.join();
    setups.push_back(seconds_since(t0));
    for (std::size_t i = 0; i < kWarmSeeds; ++i) {
      if (!warm[i].ok || warm[i].from_cache || warm[i].measurements != target)
        out.check_failures.push_back("warm-up job " + std::to_string(i) +
                                     " did not execute fully: " + warm[i].error);
      warm_reports[i] = warm[i].report;
    }
  }
  out.setup_s = median(setups);
  for (const std::string& report : warm_reports)
    out.warm_fingerprint +=
        report.empty() ? "missing\n" : report_fingerprint(report) + "\n";
  const service::ServerStats before = svc->server->stats();

  // The closed loop.
  struct ClientLog {
    std::vector<double> cached_ms, fresh_ms, submit_ms, cycle_rates;
    std::size_t submissions = 0, completed = 0, failed = 0, samples = 0;
    std::vector<std::string> failures;
  };
  std::vector<ClientLog> logs(kClients);
  const std::uint64_t rss_before = proc_status_field("VmRSS");
  std::atomic<std::size_t> completed_total{0};
  std::atomic<std::uint64_t> peak_rss_kb{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      sce::util::Rng pick(sce::util::mix64(config.seed, 0xC11E47 + c));
      double cycle_start = 0.0;
      std::size_t cycle_samples = 0;
      for (std::uint64_t k = 0; seconds_since(t0) < config.seconds; ++k) {
        const bool fresh = k % kFreshEvery == kFreshEvery - 1;
        if (k % kFreshEvery == 0) {
          cycle_start = seconds_since(t0);
          cycle_samples = 0;
        }
        std::size_t warm_index = 0;
        std::string request;
        if (fresh) {
          const std::uint64_t dataset_seed =
              200000 + ((config.seed % 1000) << 20) + (c << 16) + k;
          request = service::make_submit_request(
              "mnist-cnn", model, job_config(categories, dataset_seed));
        } else {
          warm_index = static_cast<std::size_t>(pick() % kWarmSeeds);
        }
        const std::uint64_t id = (static_cast<std::uint64_t>(c) << 32) | k;
        const Submission sub = submit_and_wait(
            socket_path, fresh ? request : warm_requests[warm_index],
            config.tracer, id);
        ++log.submissions;
        if (!sub.ok) {
          ++log.failed;
          log.failures.push_back("submission " + std::to_string(id) +
                                 " failed: " + sub.error);
          continue;
        }
        ++log.completed;
        if (completed_total.fetch_add(1) + 1 == kPeakRssAtJob)
          peak_rss_kb = proc_status_field("VmHWM");
        log.samples += sub.measurements;
        cycle_samples += sub.measurements;
        if (fresh)
          log.cycle_rates.push_back(static_cast<double>(cycle_samples) /
                                    (seconds_since(t0) - cycle_start));
        log.submit_ms.push_back(sub.submit_ms);
        if (sub.from_cache) {
          log.cached_ms.push_back(sub.total_ms);
        } else {
          log.fresh_ms.push_back(sub.total_ms);
        }
        if (fresh == sub.from_cache)
          log.failures.push_back("submission " + std::to_string(id) +
                                 (fresh ? " was served from cache"
                                        : " missed the cache"));
        if (sub.measurements != target)
          log.failures.push_back("submission " + std::to_string(id) +
                                 " delivered " +
                                 std::to_string(sub.measurements) + " samples");
        if (!fresh && sub.report != warm_reports[warm_index])
          log.failures.push_back("cached report of submission " +
                                 std::to_string(id) +
                                 " differs from its warm-up report");
      }
    });
  for (std::thread& t : clients) t.join();
  out.elapsed_s = seconds_since(t0);
  out.threads = proc_status_field("Threads");
  out.peak_rss_kb = peak_rss_kb.load();
  const std::uint64_t rss_after = proc_status_field("VmRSS");

  for (ClientLog& log : logs) {
    out.cached_ms.insert(out.cached_ms.end(), log.cached_ms.begin(),
                         log.cached_ms.end());
    out.fresh_ms.insert(out.fresh_ms.end(), log.fresh_ms.begin(),
                        log.fresh_ms.end());
    out.submit_ms.insert(out.submit_ms.end(), log.submit_ms.begin(),
                         log.submit_ms.end());
    out.cycle_rates.insert(out.cycle_rates.end(), log.cycle_rates.begin(),
                           log.cycle_rates.end());
    out.submissions += log.submissions;
    out.completed += log.completed;
    out.failed += log.failed;
    out.samples += log.samples;
    out.check_failures.insert(out.check_failures.end(), log.failures.begin(),
                              log.failures.end());
  }
  const service::ServerStats after = svc->server->stats();
  out.measurements_executed =
      after.measurements_executed - before.measurements_executed;
  out.cache_hits = after.cache_completions - before.cache_completions;
  out.rss_kb_per_job =
      out.completed ? (static_cast<double>(rss_after) -
                       static_cast<double>(rss_before)) /
                          static_cast<double>(out.completed)
                    : 0.0;
  svc.reset();
  std::filesystem::remove(socket_path);
  return out;
}

void add_service_layer_metrics(const ServiceLoopResult& loop, Report& report) {
  std::vector<double> all = loop.cached_ms;
  all.insert(all.end(), loop.fresh_ms.begin(), loop.fresh_ms.end());
  report.add("service.submit_ms", median(loop.submit_ms), "ms");
  report.add("service.cache_hit_ratio",
             loop.completed ? static_cast<double>(loop.cache_hits) /
                                  static_cast<double>(loop.completed)
                            : 0.0,
             "ratio");
  report.add("service.threads", static_cast<double>(loop.threads), "count");
  report.add("service.measurements_executed",
             static_cast<double>(loop.measurements_executed), "count");
  report.add("service.cached_job_p50_ms", median(loop.cached_ms), "ms");
  report.add("service.fresh_job_p50_ms", median(loop.fresh_ms), "ms");
  report.add("service.job_tail_ms", latency_tail(all).value_ms, "ms");
  report.add("service.rss_kb_per_job", loop.rss_kb_per_job, "KB");
}

Report run_service(const Options& options) {
  Report report;
  ServiceLoopConfig config;
  config.seed = options.seed;
  config.seconds = options.seconds;
  config.setups = 3;
  config.work_dir = options.work_dir + "/service-" + std::to_string(::getpid());
  const ServiceLoopResult loop = run_service_loop(config);
  std::filesystem::remove_all(config.work_dir);

  report.attempted = loop.submissions;
  report.failed = loop.failed;
  for (const std::string& failure : loop.check_failures)
    report.fail_check(failure);
  if (loop.peak_rss_kb == 0)
    report.fail_check("the loop completed fewer than " +
                      std::to_string(kPeakRssAtJob) + " jobs");
  const std::string digest = digest_hex(loop.warm_fingerprint);
  const std::string pinned = pinned_digest(options);
  report.note("workload service-mixed seed " + std::to_string(options.seed) +
              " digest " + digest +
              (pinned.empty() ? " (no pinned digest for this seed)"
                              : digest == pinned ? " (matches pinned)"
                                                 : " (pinned " + pinned + ")"));
  if (!pinned.empty() && digest != pinned)
    report.fail_check("digest " + digest + " differs from pinned " + pinned);

  std::vector<double> all = loop.cached_ms;
  all.insert(all.end(), loop.fresh_ms.begin(), loop.fresh_ms.end());
  const Tail tail = latency_tail(all);
  report.note("nproc " + std::to_string(nproc()) + ", executors " +
              std::to_string(kExecutors) + ", clients " +
              std::to_string(kClients) + ", job threads 1, process threads " +
              std::to_string(loop.threads));
  report.note("jobs " + std::to_string(loop.completed) + " (" +
              std::to_string(loop.cached_ms.size()) + " cached, " +
              std::to_string(loop.fresh_ms.size()) + " fresh), failed_ratio " +
              std::to_string(loop.submissions
                                 ? static_cast<double>(loop.failed) /
                                       static_cast<double>(loop.submissions)
                                 : 0.0));
  report.note("cached_job_p50_ms " + std::to_string(median(loop.cached_ms)) +
              ", fresh_job_p50_ms " + std::to_string(median(loop.fresh_ms)) +
              ", job_tail_ms " + std::to_string(tail.value_ms) + " at p" +
              std::to_string(tail.percentile) + " of " +
              std::to_string(tail.samples) + " (" +
              std::to_string(tail.beyond) + " beyond), rss_kb_per_job " +
              std::to_string(loop.rss_kb_per_job));

  // Throughput is the whole loop's ratio, as on the acquisition workloads
  // (see run_acquisition).
  report.note("samples_per_s over the median client cycle " +
              std::to_string(median(loop.cycle_rates) *
                             static_cast<double>(kClients)) +
              ", " + std::to_string(loop.cycle_rates.size()) +
              " cycles; jobs_per_s " +
              std::to_string(static_cast<double>(loop.completed) / loop.elapsed_s));
  report.add("setup_s", loop.setup_s, "s");
  report.add("samples_per_s",
             static_cast<double>(loop.samples) / loop.elapsed_s, "1/s");
  report.add("peak_rss_mb", static_cast<double>(loop.peak_rss_kb) / 1024.0, "MB");
  return report;
}

}  // namespace perfbench
