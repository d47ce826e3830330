#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/digest.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

using sce::hpc::HpcEvent;

std::size_t nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::size_t threads_within_nproc(std::size_t wanted) {
  return std::clamp<std::size_t>(wanted, 1, nproc());
}

std::uint64_t proc_status_field(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = field + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
  }
  return 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

Tail latency_tail(const std::vector<double>& latencies_ms) {
  Tail tail;
  tail.samples = latencies_ms.size();
  if (tail.samples < 11) return tail;
  std::vector<double> sorted = latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  // The value at rank n-11 (0-based) has exactly ten samples above it.
  const std::size_t rank = tail.samples - 11;
  tail.value_ms = sorted[rank];
  tail.beyond = 10;
  tail.percentile = 100.0 * static_cast<double>(rank + 1) /
                    static_cast<double>(tail.samples);
  return tail;
}

// --- Tracer ------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 14); }

long Tracer::begin(std::string name, long parent, std::uint64_t id) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), now, -1.0, parent, id});
  return static_cast<long>(spans_.size() - 1);
}

void Tracer::end(long span) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end_us = now;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.end_us >= 0.0)
      out.push_back((s.end_us - s.start_us) / 1e3);
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) out << ",\n";
    out << "{\"i\":" << i << ",\"name\":" << sce::util::json_quote(s.name)
        << ",\"start_us\":" << sce::util::json_number(s.start_us)
        << ",\"end_us\":" << sce::util::json_number(s.end_us)
        << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}";
  }
  out << "]}\n";
}

// --- Report ------------------------------------------------------------

void Report::fail_check(const std::string& what) {
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::print() const {
  for (const std::string& line : notes) std::printf("# %s\n", line.c_str());
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ",";
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += sce::util::json_quote(metrics[i].name) + ":{\"value\":" + value +
           ",\"unit\":" + sce::util::json_quote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- Digests -----------------------------------------------------------

const std::vector<HpcEvent>& digest_events() {
  static const std::vector<HpcEvent> events = {
      HpcEvent::kInstructions, HpcEvent::kBranches,
      HpcEvent::kCacheReferences, HpcEvent::kCacheMisses};
  return events;
}

const std::vector<HpcEvent>& stream_events() {
  static const std::vector<HpcEvent> events = {HpcEvent::kInstructions,
                                               HpcEvent::kBranches};
  return events;
}

std::string campaign_fingerprint(const sce::core::CampaignResult& result,
                                 const sce::core::LeakageAssessment& verdict,
                                 const std::vector<HpcEvent>& events,
                                 bool significant_pairs) {
  std::ostringstream text;
  for (HpcEvent e : events) {
    text << sce::hpc::to_string(e) << ':';
    for (std::size_t c = 0; c < result.category_count(); ++c) {
      text << '[';
      for (double v : result.of(e, c))
        text << static_cast<std::uint64_t>(v) << ',';
      text << ']';
    }
    text << ';';
  }
  if (!significant_pairs) return text.str();
  text << "significant-cache-misses:";
  const auto& analysis = verdict.analysis_of(HpcEvent::kCacheMisses);
  for (const auto& pair : analysis.pairs)
    if (pair.significant(verdict.config.alpha))
      text << pair.category_a << '-' << pair.category_b << ',';
  return text.str();
}

std::string digest_hex(const std::string& text) {
  return sce::util::content_digest_hex(text);
}

std::string pinned_digest(const Options& options) {
  if (options.seed != kDefaultSeed) return "";
  std::ifstream in(options.pinned_path);
  if (!in) return "";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const sce::util::JsonValue doc = sce::util::parse_json(buffer.str());
  const sce::util::JsonValue* digests = doc.find("digests");
  if (!digests) return "";
  const sce::util::JsonValue* entry = digests->find(options.workload);
  return entry ? entry->as_string() : "";
}

// --- Inputs ------------------------------------------------------------

std::vector<int> pick_categories(std::uint64_t seed) {
  std::vector<int> all = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  sce::util::Rng rng(sce::util::mix64(seed, 0xCA7E6021E5ULL));
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng() % (all.size() - i));
    std::swap(all[i], all[j]);
  }
  std::vector<int> picked(all.begin(), all.begin() + 4);
  std::sort(picked.begin(), picked.end());
  return picked;
}

std::uint64_t pmu_noise_seed(std::uint64_t seed) {
  return sce::util::mix64(seed, 0x9015E5EEDULL);
}

sce::nn::TrainedModel load_model(const Options& options, bool cifar) {
  sce::nn::ZooConfig config;
  config.cache_dir = options.cache_dir;
  return cifar ? sce::nn::get_or_train_cifar(config)
               : sce::nn::get_or_train_mnist(config);
}

}  // namespace perfbench
