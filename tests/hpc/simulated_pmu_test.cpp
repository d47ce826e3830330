#include "hpc/simulated_pmu.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "uarch/trace_buffer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sce::hpc {
namespace {

SimulatedPmuConfig quiet_config() {
  SimulatedPmuConfig cfg;
  cfg.environment = SimulatedPmuConfig::no_environment();
  return cfg;
}

// Drives a small fixed synthetic workload into the PMU.
void run_synthetic_workload(SimulatedPmu& pmu,
                            const std::vector<float>& buffer,
                            bool branch_outcome) {
  for (std::size_t i = 0; i < buffer.size(); ++i)
    pmu.load(&buffer[i], sizeof(float));
  pmu.branch(0x1234, branch_outcome);
  pmu.structural_branches(10);
  pmu.retire(100);
}

TEST(SimulatedPmu, CountsKnownWorkloadExactly) {
  SimulatedPmu pmu(quiet_config());
  std::vector<float> buffer(32, 1.0f);
  pmu.start();
  run_synthetic_workload(pmu, buffer, true);
  pmu.stop();
  const CounterSample s = pmu.read();

  // instructions = 32 loads + (1 + 10) branches + 100 retired.
  EXPECT_EQ(s[HpcEvent::kInstructions], 32u + 11u + 100u);
  EXPECT_EQ(s[HpcEvent::kBranches], 11u);
  // 32 floats = 128 bytes = at most 3 lines -> <= 3 LLC misses, >= 2.
  EXPECT_GE(s[HpcEvent::kCacheMisses], 2u);
  EXPECT_LE(s[HpcEvent::kCacheMisses], 3u);
  EXPECT_EQ(s[HpcEvent::kCacheMisses], s[HpcEvent::kCacheReferences]);
  EXPECT_GT(s[HpcEvent::kCycles], 0u);
  EXPECT_GE(s[HpcEvent::kCycles], s[HpcEvent::kRefCycles]);
  EXPECT_GT(s[HpcEvent::kBusCycles], 0u);
}

TEST(SimulatedPmu, EventsIgnoredWhenNotRunning) {
  SimulatedPmu pmu(quiet_config());
  std::vector<float> buffer(16, 1.0f);
  run_synthetic_workload(pmu, buffer, true);  // before start()
  pmu.start();
  pmu.stop();
  const CounterSample s = pmu.read();
  EXPECT_EQ(s[HpcEvent::kInstructions], 0u);
  EXPECT_EQ(s[HpcEvent::kCacheMisses], 0u);
}

TEST(SimulatedPmu, ReadWhileRunningThrows) {
  SimulatedPmu pmu(quiet_config());
  pmu.start();
  EXPECT_THROW(pmu.read(), InvalidArgument);
  pmu.stop();
}

TEST(SimulatedPmu, ColdStartMakesMeasurementsRepeatable) {
  SimulatedPmu pmu(quiet_config());
  std::vector<float> buffer(64, 1.0f);

  pmu.start();
  run_synthetic_workload(pmu, buffer, true);
  pmu.stop();
  const CounterSample first = pmu.read();

  pmu.start();
  run_synthetic_workload(pmu, buffer, true);
  pmu.stop();
  const CounterSample second = pmu.read();

  for (HpcEvent e : all_events()) EXPECT_EQ(first[e], second[e]);
}

TEST(SimulatedPmu, WarmCachesReduceMisses) {
  SimulatedPmuConfig cfg = quiet_config();
  cfg.cold_start_per_measurement = false;
  SimulatedPmu pmu(cfg);
  std::vector<float> buffer(256, 1.0f);

  pmu.start();
  run_synthetic_workload(pmu, buffer, true);
  pmu.stop();
  const CounterSample cold = pmu.read();

  pmu.start();
  run_synthetic_workload(pmu, buffer, true);
  pmu.stop();
  const CounterSample warm = pmu.read();

  EXPECT_GT(cold[HpcEvent::kCacheMisses], 0u);
  EXPECT_EQ(warm[HpcEvent::kCacheMisses], 0u);
}

TEST(SimulatedPmu, BranchMissesComeFromPredictor) {
  SimulatedPmu pmu(quiet_config());
  pmu.start();
  // Alternating outcomes at one site: early mispredicts guaranteed.
  for (int i = 0; i < 10; ++i) pmu.branch(0x999, i % 2 == 0);
  pmu.stop();
  const CounterSample s = pmu.read();
  EXPECT_GT(s[HpcEvent::kBranchMisses], 0u);
  EXPECT_EQ(s[HpcEvent::kBranches], 10u);
}

TEST(SimulatedPmu, StructuralBranchesCountButNeverMiss) {
  SimulatedPmu pmu(quiet_config());
  pmu.start();
  pmu.structural_branches(1000);
  pmu.stop();
  const CounterSample s = pmu.read();
  EXPECT_EQ(s[HpcEvent::kBranches], 1000u);
  EXPECT_EQ(s[HpcEvent::kBranchMisses], 0u);
}

TEST(SimulatedPmu, EnvironmentAddsBaseCounts) {
  SimulatedPmuConfig cfg;
  cfg.environment = SimulatedPmuConfig::default_environment();
  SimulatedPmu noisy(cfg);
  SimulatedPmu quiet(quiet_config());
  std::vector<float> buffer(32, 1.0f);

  for (auto* pmu : {&noisy, &quiet}) {
    pmu->start();
    run_synthetic_workload(*pmu, buffer, true);
    pmu->stop();
  }
  const CounterSample with_env = noisy.read();
  const CounterSample without = quiet.read();
  for (HpcEvent e : all_events())
    EXPECT_GT(with_env[e], without[e]) << to_string(e);
}

TEST(SimulatedPmu, EnvironmentNoiseVariesAcrossMeasurements) {
  SimulatedPmuConfig cfg;
  cfg.environment = SimulatedPmuConfig::default_environment();
  SimulatedPmu pmu(cfg);
  std::vector<float> buffer(32, 1.0f);

  std::set<std::uint64_t> observed;
  for (int i = 0; i < 5; ++i) {
    pmu.start();
    run_synthetic_workload(pmu, buffer, true);
    pmu.stop();
    observed.insert(pmu.read()[HpcEvent::kCycles]);
  }
  EXPECT_GT(observed.size(), 1u);
}

TEST(SimulatedPmu, PollutionIncreasesWarmMisses) {
  // Use a single small cache level so random evictions have a realistic
  // chance of hitting the working set (with the full hierarchy, a line
  // must be evicted from L1, L2 and LLC between touches to re-miss).
  SimulatedPmuConfig base = quiet_config();
  base.cold_start_per_measurement = false;
  base.hierarchy.enable_l2 = false;
  base.hierarchy.enable_llc = false;
  base.hierarchy.l1d = {"L1D", 4096, 4, 64, uarch::ReplacementPolicy::kLru};
  SimulatedPmuConfig polluted = base;
  polluted.pollution_period = 2;

  std::vector<float> buffer(512, 1.0f);
  std::uint64_t misses_clean = 0;
  std::uint64_t misses_polluted = 0;
  {
    SimulatedPmu pmu(base);
    for (int round = 0; round < 5; ++round) {
      pmu.start();
      run_synthetic_workload(pmu, buffer, true);
      pmu.stop();
      misses_clean += pmu.read()[HpcEvent::kCacheMisses];
    }
  }
  {
    SimulatedPmu pmu(polluted);
    for (int round = 0; round < 5; ++round) {
      pmu.start();
      run_synthetic_workload(pmu, buffer, true);
      pmu.stop();
      misses_polluted += pmu.read()[HpcEvent::kCacheMisses];
    }
  }
  EXPECT_GT(misses_polluted, misses_clean);
}

TEST(SimulatedPmu, SupportsAllEightEvents) {
  SimulatedPmu pmu;
  EXPECT_EQ(pmu.supported_events().size(), kNumEvents);
  EXPECT_EQ(pmu.name(), "simulated-pmu");
}

TEST(SimulatedPmu, WorkloadCountsExcludeEnvironment) {
  SimulatedPmuConfig cfg;
  cfg.environment = SimulatedPmuConfig::default_environment();
  SimulatedPmu pmu(cfg);
  std::vector<float> buffer(32, 1.0f);
  pmu.start();
  run_synthetic_workload(pmu, buffer, true);
  pmu.stop();
  const CounterSample workload = pmu.workload_counts();
  const CounterSample read = pmu.read();
  EXPECT_EQ(workload[HpcEvent::kInstructions], 143u);
  EXPECT_GT(read[HpcEvent::kInstructions],
            workload[HpcEvent::kInstructions]);
}

TEST(CounterSample, PerfStatRendering) {
  CounterSample s;
  s[HpcEvent::kCacheMisses] = 8364694;
  const std::string text = s.to_perf_stat_string();
  EXPECT_NE(text.find("83,64,694"), std::string::npos);
  EXPECT_NE(text.find("cache-misses"), std::string::npos);
  EXPECT_NE(text.find("instructions"), std::string::npos);
}

// --- Page-translation memo ------------------------------------------------
//
// normalize() answers most accesses from a memo of the last two pages it
// translated.  These tests hold the PMU's memory side to a reference that
// normalizes with a plain first-touch map and feeds a MemoryHierarchy
// directly.

/// One memory access at a synthetic address; the PMU never dereferences
/// the addresses it is handed.
struct Access {
  std::uintptr_t addr = 0;
  std::size_t bytes = 4;
  bool is_write = false;
};

/// Runs of accesses over six raw pages (two pairs adjacent), with the
/// next page often the one before the current (A B A B ...), sometimes the
/// same, otherwise any.  Some accesses straddle a line or a page boundary.
std::vector<Access> page_stream(std::size_t n, std::uint64_t seed) {
  const std::uintptr_t pages[] = {0x7f1200003, 0x7f1200004, 0x55aa00010,
                                  0x55aa00011, 0x7f12000a0, 0x7ffd00001};
  util::Rng rng(seed);
  std::vector<Access> out;
  std::size_t previous = 0;
  std::size_t current = 1;
  while (out.size() < n) {
    const double pick = rng.uniform();
    const std::size_t next =
        pick < 0.4   ? previous
        : pick < 0.6 ? current
                     : static_cast<std::size_t>(rng.below(std::size(pages)));
    previous = current;
    current = next;
    const std::size_t run = 1 + static_cast<std::size_t>(rng.below(6));
    for (std::size_t i = 0; i < run; ++i) {
      Access a;
      a.bytes = rng.chance(0.1) ? 16 : 4;
      std::uintptr_t offset = rng.below(4096 - a.bytes) & ~std::uintptr_t{3};
      if (rng.chance(0.02)) offset = 4096 - 8;  // spills onto the next page
      a.addr = (pages[current] << 12) + offset;
      a.is_write = rng.chance(0.25);
      out.push_back(a);
    }
  }
  return out;
}

void feed(SimulatedPmu& pmu, const std::vector<Access>& accesses,
          std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const auto* p = reinterpret_cast<const void*>(accesses[i].addr);
    if (accesses[i].is_write)
      pmu.store(p, accesses[i].bytes);
    else
      pmu.load(p, accesses[i].bytes);
  }
}

/// The PMU's memory side, written the plain way.
class ReferenceMemory {
 public:
  explicit ReferenceMemory(const SimulatedPmuConfig& config)
      : config_(config), hierarchy_(config.hierarchy) {}

  using Frames = std::map<std::uintptr_t, std::uintptr_t>;

  void start() {
    hierarchy_.reset_stats();
    if (config_.cold_start_per_measurement) {
      hierarchy_.flush_all();
      frames_.clear();
    }
    cycles_ = 0;
  }

  void feed(const std::vector<Access>& accesses, std::size_t begin,
            std::size_t end) {
    feed_with(frames_, accesses, begin, end);
  }

  /// A canonical consume(): the trace is normalized with its own fresh
  /// first-touch numbering, and the PMU's frame table stays empty, so
  /// later live accesses are numbered from frame 0 again.
  void feed_canonical(const std::vector<Access>& trace) {
    Frames trace_frames;
    feed_with(trace_frames, trace, 0, trace.size());
  }

  std::uint64_t cycles() const { return cycles_; }
  const uarch::MemoryHierarchy& hierarchy() const { return hierarchy_; }

 private:
  void feed_with(Frames& frames, const std::vector<Access>& accesses,
                 std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const Access& a = accesses[i];
      std::uintptr_t addr = a.addr;
      if (config_.normalize_addresses) {
        const std::uintptr_t page = a.addr >> 12;
        auto it = frames.find(page);
        if (it == frames.end()) it = frames.emplace(page, frames.size()).first;
        addr = uarch::TraceBuffer::kCanonicalBase + (it->second << 12) +
               (a.addr & 0xFFF);
      }
      cycles_ += hierarchy_.access(addr, a.bytes, a.is_write).cycles;
    }
  }

  SimulatedPmuConfig config_;
  uarch::MemoryHierarchy hierarchy_;
  Frames frames_;
  std::uint64_t cycles_ = 0;
};

void expect_cache_stats_equal(const uarch::CacheStats& got,
                              const uarch::CacheStats& want,
                              const char* level) {
  EXPECT_EQ(got.accesses, want.accesses) << level;
  EXPECT_EQ(got.hits, want.hits) << level;
  EXPECT_EQ(got.misses, want.misses) << level;
  EXPECT_EQ(got.evictions, want.evictions) << level;
  EXPECT_EQ(got.writebacks, want.writebacks) << level;
}

void expect_matches_reference(SimulatedPmu& pmu, const ReferenceMemory& ref) {
  const uarch::MemoryHierarchy& want = ref.hierarchy();
  EXPECT_EQ(pmu.memory_cycles(), ref.cycles());
  expect_cache_stats_equal(pmu.hierarchy().l1d_stats(), want.l1d_stats(),
                           "L1D");
  expect_cache_stats_equal(pmu.hierarchy().l2_stats(), want.l2_stats(), "L2");
  expect_cache_stats_equal(pmu.hierarchy().llc_stats(), want.llc_stats(),
                           "LLC");
  EXPECT_EQ(pmu.hierarchy().tlb_stats().hits, want.tlb_stats().hits);
  EXPECT_EQ(pmu.hierarchy().tlb_stats().misses, want.tlb_stats().misses);
  const CounterSample s = pmu.workload_counts();
  EXPECT_EQ(s[HpcEvent::kCacheMisses], want.llc_stats().misses);
  EXPECT_EQ(s[HpcEvent::kCacheReferences], want.llc_stats().accesses);
}

/// Two measurements over one stream, the second cold-started halfway
/// through without a stop(), each checked against the reference.
void expect_stream_matches_reference(const SimulatedPmuConfig& cfg) {
  const std::vector<Access> stream = page_stream(8000, 0x9A6E);
  const std::size_t half = stream.size() / 2;
  SimulatedPmu pmu(cfg);
  ReferenceMemory ref(cfg);
  pmu.start();
  ref.start();
  feed(pmu, stream, 0, half);
  ref.feed(stream, 0, half);
  expect_matches_reference(pmu, ref);
  pmu.start();
  ref.start();
  feed(pmu, stream, half, stream.size());
  ref.feed(stream, half, stream.size());
  pmu.stop();
  expect_matches_reference(pmu, ref);
  EXPECT_GT(pmu.hierarchy().llc_stats().misses, 0u);
}

TEST(SimulatedPmuPageMemo, ColdNormalizedMatchesFirstTouchReference) {
  expect_stream_matches_reference(quiet_config());
}

TEST(SimulatedPmuPageMemo, WarmNormalizedMatchesFirstTouchReference) {
  // The frame table and the memo both survive a warm start().
  SimulatedPmuConfig cfg = quiet_config();
  cfg.cold_start_per_measurement = false;
  expect_stream_matches_reference(cfg);
}

TEST(SimulatedPmuPageMemo, RawAddressesBypassTheMemo) {
  SimulatedPmuConfig cfg = quiet_config();
  cfg.normalize_addresses = false;
  expect_stream_matches_reference(cfg);
}

TEST(SimulatedPmuPageMemo, CanonicalConsumeThenLiveAccesses) {
  const std::vector<Access> recorded = page_stream(3000, 0x7ACE);
  const std::vector<Access> live = page_stream(3000, 0x11FE);
  uarch::TraceBuffer trace;
  for (const Access& a : recorded) {
    const auto* p = reinterpret_cast<const void*>(a.addr);
    if (a.is_write)
      trace.store(p, a.bytes);
    else
      trace.load(p, a.bytes);
  }

  const SimulatedPmuConfig cfg = quiet_config();
  SimulatedPmu pmu(cfg);
  ReferenceMemory ref(cfg);
  pmu.start();
  ref.start();
  pmu.consume(trace, uarch::ReplayClass::kMemory);
  ref.feed_canonical(recorded);
  expect_matches_reference(pmu, ref);
  feed(pmu, live, 0, live.size());
  ref.feed(live, 0, live.size());
  pmu.stop();
  expect_matches_reference(pmu, ref);
}

}  // namespace
}  // namespace sce::hpc
