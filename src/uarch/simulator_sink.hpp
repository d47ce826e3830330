// The live event path of the simulated PMU: page normalization, the
// cache hierarchy and TLB, the branch predictor, co-tenant pollution and
// the architectural counts of the running measurement.  hpc::SimulatedPmu
// derives the perf events from these counts and adds keys and noise.
//
// The event methods are final and defined in this header, as are the hit
// paths of the hierarchy, TLB and caches below them.  The kernels find a
// simulator through TraceSink::simulator() and run their loops over this
// type (nn/kernels/domain.hpp), so an event that hits the page memo, the
// TLB and L1D makes no call at all.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

#include "uarch/branch_predictor.hpp"
#include "uarch/hierarchy.hpp"
#include "uarch/trace.hpp"
#include "uarch/trace_buffer.hpp"
#include "util/rng.hpp"

namespace sce::uarch {

/// Architectural totals of one measurement, as accumulated by a live
/// SimulatorSink or assembled from per-component trace replays.
struct ArchCounts {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t retired = 0;
  /// Conditional + structural branches.
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t memory_cycles = 0;
  std::uint64_t llc_references = 0;
  std::uint64_t llc_misses = 0;
};

class SimulatorSink : public TraceSink {
 public:
  /// `normalize_addresses` and `pollution_period` have the meaning of the
  /// hpc::SimulatedPmuConfig fields of the same names.
  SimulatorSink(const HierarchyConfig& hierarchy, PredictorKind predictor,
                bool normalize_addresses, std::size_t pollution_period,
                std::uint64_t pollution_seed);

  // --- TraceSink: counted only while a measurement runs ---
  void load(const void* addr, std::size_t bytes) final {
    if (!running_) return;
    ++loads_;
    data_access(addr, bytes, false);
  }
  void store(const void* addr, std::size_t bytes) final {
    if (!running_) return;
    ++stores_;
    data_access(addr, bytes, true);
  }
  void branch(std::uintptr_t pc, bool taken) final {
    if (!running_) return;
    predictor_->resolve(pc, taken);
  }
  /// Loop back-edges: counted as retired branches, predicted perfectly by
  /// any reasonable predictor after the first iteration.
  void structural_branches(std::uint64_t n) final {
    if (!running_) return;
    structural_branches_ += n;
  }
  void retire(std::uint64_t n) final {
    if (!running_) return;
    retired_ += n;
  }
  SimulatorSink* simulator() final { return this; }

  /// Starts counting: zeroes the counts and statistics, and with `cold`
  /// flushes the caches, TLB and predictor and forgets the page mapping.
  void begin_measurement(bool cold);
  void end_measurement() { running_ = false; }
  bool measuring() const { return running_; }
  void reseed_pollution(std::uint64_t seed) {
    pollution_rng_ = util::Rng(seed);
  }

  /// Feeds a recorded trace into the running measurement (see
  /// hpc::SimulatedPmu::consume); `cold` says the measurement started
  /// cold, which the canonical-address fast path requires.
  void replay(const TraceBuffer& trace, ReplayClass cls, bool cold);

  /// Totals of the current/last measurement.
  ArchCounts arch_counts() const;
  std::uint64_t memory_cycles() const { return memory_cycles_; }
  MemoryHierarchy& hierarchy() { return hierarchy_; }
  BranchPredictor& predictor() { return *predictor_; }

 private:
  using PageFrame = std::pair<const std::uintptr_t, std::uintptr_t>;

  std::uintptr_t normalize(const void* addr);
  /// The frame-table lookup behind a miss in the two-page memo.
  const PageFrame* map_page(std::uintptr_t page);
  void data_access(const void* addr, std::size_t bytes, bool is_write) {
    const AccessResult result =
        hierarchy_.access(normalize(addr), bytes, is_write);
    memory_cycles_ += result.cycles;
    if (pollution_period_ != 0) advance_pollution(result.lines_touched);
  }
  /// Evicts one line from every level each time pollution_period_ line
  /// accesses complete.
  void advance_pollution(std::uint32_t lines);

  MemoryHierarchy hierarchy_;
  std::unique_ptr<BranchPredictor> predictor_;
  /// Potentially overlapping so that the flags below sit in its tail
  /// padding, which keeps sizeof(hpc::SimulatedPmu) at its pinned value
  /// (tests/hpc/footprint_test.cpp).
  [[no_unique_address]] util::Rng pollution_rng_;
  bool running_ = false;
  /// Cleared while replay() feeds canonical addresses, which are already
  /// normalized.
  bool normalize_addresses_ = true;
  /// Raw page -> frame, numbered in first-touch order, so the next frame
  /// is page_frames_.size().
  std::unordered_map<std::uintptr_t, std::uintptr_t> page_frames_;
  /// The two most recently translated pages, most recent first; null when
  /// unset.  Each points at its page_frames_ node, which a rehash does not
  /// move.  Cleared together with page_frames_.
  std::array<const PageFrame*, 2> recent_pages_{};
  std::size_t pollution_period_ = 0;
  std::size_t accesses_since_pollution_ = 0;

  // Counts accumulated during the active measurement.
  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t structural_branches_ = 0;
  std::uint64_t memory_cycles_ = 0;
};

inline std::uintptr_t SimulatorSink::normalize(const void* addr) {
  constexpr std::uintptr_t kPageBits = 12;  // 4 KiB frames
  const auto raw = reinterpret_cast<std::uintptr_t>(addr);
  if (!normalize_addresses_) return raw;
  const std::uintptr_t page = raw >> kPageBits;
  // Nearly all accesses fall in one of the last two pages translated, so
  // the hash lookup runs only on a miss in the two-entry memo.
  const PageFrame* frame = recent_pages_[0];
  if (frame == nullptr || frame->first != page) {
    frame = recent_pages_[1];
    if (frame == nullptr || frame->first != page) frame = map_page(page);
    recent_pages_[1] = recent_pages_[0];
    recent_pages_[0] = frame;
  }
  return TraceBuffer::kCanonicalBase + (frame->second << kPageBits) +
         (raw & ((std::uintptr_t{1} << kPageBits) - 1));
}

}  // namespace sce::uarch
