#include "uarch/simulator_sink.hpp"

namespace sce::uarch {

SimulatorSink::SimulatorSink(const HierarchyConfig& hierarchy,
                             PredictorKind predictor,
                             bool normalize_addresses,
                             std::size_t pollution_period,
                             std::uint64_t pollution_seed)
    : hierarchy_(hierarchy),
      predictor_(make_predictor(predictor)),
      pollution_rng_(pollution_seed),
      normalize_addresses_(normalize_addresses),
      pollution_period_(pollution_period) {}

void SimulatorSink::begin_measurement(bool cold) {
  running_ = true;
  loads_ = 0;
  stores_ = 0;
  retired_ = 0;
  structural_branches_ = 0;
  memory_cycles_ = 0;
  accesses_since_pollution_ = 0;
  hierarchy_.reset_stats();
  predictor_->reset_stats();
  if (cold) {
    hierarchy_.flush_all();
    predictor_->flush();
    // A cold start is a fresh process image: the OS hands out frames in
    // first-touch order again.
    page_frames_.clear();
    recent_pages_ = {};
  }
}

ArchCounts SimulatorSink::arch_counts() const {
  const BranchStats& bp = predictor_->stats();
  ArchCounts counts;
  counts.loads = loads_;
  counts.stores = stores_;
  counts.retired = retired_;
  counts.branches = bp.branches + structural_branches_;
  counts.mispredicts = bp.mispredicts;
  counts.memory_cycles = memory_cycles_;
  counts.llc_references = hierarchy_.last_level_references();
  counts.llc_misses = hierarchy_.last_level_misses();
  return counts;
}

const SimulatorSink::PageFrame* SimulatorSink::map_page(std::uintptr_t page) {
  return &*page_frames_.try_emplace(page, page_frames_.size()).first;
}

void SimulatorSink::advance_pollution(std::uint32_t lines) {
  accesses_since_pollution_ += lines;
  while (accesses_since_pollution_ >= pollution_period_) {
    accesses_since_pollution_ -= pollution_period_;
    hierarchy_.pollute(1, pollution_rng_);
  }
}

void SimulatorSink::replay(const TraceBuffer& trace, ReplayClass cls,
                           bool cold) {
  // The canonical fast path is valid only when this trace is the first
  // memory activity of a cold, normalized measurement: its first-touch
  // ordinals then coincide with what normalize() would assign.
  const bool canonical = cold && normalize_addresses_ && loads_ == 0 &&
                         stores_ == 0 && page_frames_.empty();
  if (!canonical) {
    trace.replay(*this, cls, ReplayAddressing::kSessionStable);
    return;
  }
  normalize_addresses_ = false;
  try {
    trace.replay(*this, cls, ReplayAddressing::kCanonical);
  } catch (...) {
    normalize_addresses_ = true;
    throw;
  }
  normalize_addresses_ = true;
}

}  // namespace sce::uarch
