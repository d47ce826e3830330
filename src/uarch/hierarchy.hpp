// Multi-level data-cache hierarchy with optional next-line prefetcher.
//
// Mirrors the structure behind the perf events the paper monitors:
//   cache-references  = accesses that reach the last-level cache
//   cache-misses      = last-level cache misses
// Each byte-ranged access is decomposed into line-granular accesses that
// walk L1D -> L2 -> LLC.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "uarch/cache.hpp"
#include "uarch/prefetcher.hpp"
#include "uarch/tlb.hpp"

namespace sce::uarch {

struct HierarchyConfig {
  CacheConfig l1d{"L1D", 32 * 1024, 8, 64, ReplacementPolicy::kTreePlru};
  CacheConfig l2{"L2", 256 * 1024, 8, 64, ReplacementPolicy::kLru};
  CacheConfig llc{"LLC", 2 * 1024 * 1024, 16, 64, ReplacementPolicy::kLru};
  bool enable_l2 = true;
  bool enable_llc = true;
  /// Next-line prefetch into L2 on an L1 miss.
  bool enable_next_line_prefetch = false;
  /// Stride/stream prefetcher (L2 streamer) trained by L1 misses.
  bool enable_stride_prefetch = false;
  PrefetcherConfig stride_prefetcher{};
  TlbConfig tlb{};
  bool enable_tlb = true;
  /// Miss latencies in cycles, used by the core event model.
  std::uint32_t l1_hit_cycles = 4;
  std::uint32_t l2_hit_cycles = 12;
  std::uint32_t llc_hit_cycles = 40;
  std::uint32_t memory_cycles = 200;
  std::uint32_t tlb_miss_cycles = 30;
};

/// Field-wise equality: two hierarchies with equal configs produce
/// identical counts from identical access sequences (the sweep engine's
/// deduplication criterion).
inline bool operator==(const HierarchyConfig& a, const HierarchyConfig& b) {
  return a.l1d == b.l1d && a.l2 == b.l2 && a.llc == b.llc &&
         a.enable_l2 == b.enable_l2 && a.enable_llc == b.enable_llc &&
         a.enable_next_line_prefetch == b.enable_next_line_prefetch &&
         a.enable_stride_prefetch == b.enable_stride_prefetch &&
         a.stride_prefetcher == b.stride_prefetcher && a.tlb == b.tlb &&
         a.enable_tlb == b.enable_tlb && a.l1_hit_cycles == b.l1_hit_cycles &&
         a.l2_hit_cycles == b.l2_hit_cycles &&
         a.llc_hit_cycles == b.llc_hit_cycles &&
         a.memory_cycles == b.memory_cycles &&
         a.tlb_miss_cycles == b.tlb_miss_cycles;
}
inline bool operator!=(const HierarchyConfig& a, const HierarchyConfig& b) {
  return !(a == b);
}

struct AccessResult {
  /// Cycles this access contributed (latency model, not overlap-aware).
  std::uint64_t cycles = 0;
  /// Number of line-granular accesses the byte range decomposed into.
  std::uint32_t lines_touched = 0;
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(HierarchyConfig config = {},
                           std::uint64_t rng_seed = 11);

  const HierarchyConfig& config() const { return config_; }

  /// Perform a data access covering [addr, addr + bytes).  A single-line
  /// access that hits the TLB and L1D completes inline (below); misses
  /// and multi-line accesses call out.
  AccessResult access(std::uintptr_t addr, std::size_t bytes, bool is_write);

  const CacheStats& l1d_stats() const { return l1d_->stats(); }
  const CacheStats& l2_stats() const;
  const CacheStats& llc_stats() const;
  const TlbStats& tlb_stats() const { return tlb_.stats(); }
  const PrefetcherStats& prefetcher_stats() const {
    return stride_prefetcher_.stats();
  }

  CacheLevel& l1d() { return *l1d_; }
  CacheLevel* l2() { return l2_.get(); }
  CacheLevel* llc() { return llc_.get(); }

  /// References that reached the last enabled level (perf cache-references).
  std::uint64_t last_level_references() const;
  /// Misses at the last enabled level (perf cache-misses).
  std::uint64_t last_level_misses() const;

  /// Invalidate all levels (cold start).
  void flush_all();
  /// Evict `n` random lines from every level (cache pollution by other
  /// processes sharing the machine).
  void pollute(std::size_t n, util::Rng& rng);

  void reset_stats();

 private:
  AccessResult access_line(std::uintptr_t line_addr, bool is_write);
  /// access() for a zero-byte or multi-line range.
  AccessResult access_lines(std::uintptr_t addr, std::size_t bytes,
                            bool is_write);
  /// The part of access_line() below an L1D miss: prefetchers, L2, LLC
  /// and memory.  Returns the cycles it adds.
  std::uint64_t access_below_l1(std::uintptr_t line_addr, bool is_write);

  HierarchyConfig config_;
  std::unique_ptr<CacheLevel> l1d_;
  std::unique_ptr<CacheLevel> l2_;
  std::unique_ptr<CacheLevel> llc_;
  Tlb tlb_;
  StridePrefetcher stride_prefetcher_;
  CacheStats empty_stats_{};
};

inline AccessResult MemoryHierarchy::access_line(std::uintptr_t line_addr,
                                                 bool is_write) {
  AccessResult r;
  r.lines_touched = 1;
  if (config_.enable_tlb) {
    if (!tlb_.access(line_addr)) r.cycles += config_.tlb_miss_cycles;
  }
  if (l1d_->access(line_addr, is_write)) {
    r.cycles += config_.l1_hit_cycles;
    return r;
  }
  r.cycles += access_below_l1(line_addr, is_write);
  return r;
}

inline AccessResult MemoryHierarchy::access(std::uintptr_t addr,
                                            std::size_t bytes, bool is_write) {
  // CacheLevel checks that the L1D line size is a power of two.
  const int line_shift = std::countr_zero(config_.l1d.line_bytes);
  const std::uintptr_t first = addr >> line_shift;
  // Kernel accesses are aligned scalars: nearly all stay within one line.
  if (bytes != 0 && first == (addr + bytes - 1) >> line_shift)
    return access_line(first << line_shift, is_write);
  return access_lines(addr, bytes, is_write);
}

}  // namespace sce::uarch
