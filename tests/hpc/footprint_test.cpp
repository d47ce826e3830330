// The simulator's own heap footprint is part of every cache counter.
//
// Address normalization keeps each traced address's offset within its
// page, and those offsets are where the allocator placed the traced
// buffers, which depends on every allocation made before them, the
// simulator's own included.  Growing SimulatedPmu by 16 unused bytes is
// enough to change a whole MNIST campaign's cache counts.  This test pins
// the sizes and the allocations of one cold measurement, so a change to
// the simulator's footprint shows up here rather than as a changed
// benchmark digest.  The figures are for x86-64 with libstdc++.
#include <gtest/gtest.h>

#include <cstdint>

#include "hpc/simulated_pmu.hpp"
#include "util/alloc_hook.hpp"

namespace sce::hpc {
namespace {

/// A fixed trace over 24 pages: every 328th byte, loads and stores, with
/// one conditional branch per access.
void run_fixed_trace(SimulatedPmu& pmu) {
  constexpr std::uintptr_t kBase = 0x7f5a3c000000ULL;
  constexpr std::uintptr_t kSpan = 24 * 4096;
  for (std::uintptr_t i = 0; i < 2000; ++i) {
    const auto* p = reinterpret_cast<const void*>(kBase + (i * 328) % kSpan);
    if (i % 4 == 3)
      pmu.store(p, 4);
    else
      pmu.load(p, 4);
    pmu.branch(0x401000 + (i % 7) * 16, i % 3 == 0);
  }
  pmu.structural_branches(100);
  pmu.retire(1000);
}

TEST(SimulatedPmuFootprint, SizesAndAllocationsArePinned) {
#if !(defined(__x86_64__) && defined(__GLIBCXX__))
  GTEST_SKIP() << "figures pinned for x86-64 with libstdc++";
#else
  EXPECT_EQ(sizeof(SimulatedPmu), 1264u);
  EXPECT_EQ(sizeof(uarch::CacheLevel), 216u);

  util::AllocationCounter guard;
  {
    SimulatedPmu pmu;
    pmu.set_measurement_key(1);
    pmu.start();
    run_fixed_trace(pmu);
    pmu.stop();
    (void)pmu.read();
  }
  // Read both before asserting: a failed expectation allocates.
  const std::uint64_t allocations = guard.allocations();
  const std::uint64_t bytes = guard.bytes();
  // 13 allocations at construction, then one frame-table node per page
  // and two bucket arrays as the table grows.
  EXPECT_EQ(allocations, 39u);
  EXPECT_EQ(bytes, 937832u);
#endif
}

}  // namespace
}  // namespace sce::hpc
