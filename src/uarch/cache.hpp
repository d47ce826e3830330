// Set-associative cache model with pluggable replacement policies.
//
// One CacheLevel models a single level (L1D, L2, LLC).  The model tracks
// tags only — no data — which is all that is needed to count references,
// hits and misses.  Replacement policies implemented: true LRU, tree-PLRU
// (the policy used by most Intel L1/L2 caches), FIFO and random.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace sce::uarch {

enum class ReplacementPolicy { kLru, kTreePlru, kFifo, kRandom };

std::string to_string(ReplacementPolicy policy);

struct CacheConfig {
  std::string name = "cache";
  std::size_t size_bytes = 32 * 1024;
  std::size_t associativity = 8;
  std::size_t line_bytes = 64;
  ReplacementPolicy policy = ReplacementPolicy::kLru;
  /// Way-partitioning (Intel CAT style): the first `protected_ways` ways
  /// of every set are reserved for the measured process — co-tenant
  /// evictions (evict_random_line) cannot touch them.  0 disables
  /// partitioning.  The process's own replacement is unaffected.
  std::size_t protected_ways = 0;

  std::size_t num_sets() const {
    return size_bytes / (associativity * line_bytes);
  }
};

/// Field-wise equality, used by the sweep engine to deduplicate grid
/// points that share a cache geometry.
inline bool operator==(const CacheConfig& a, const CacheConfig& b) {
  return a.name == b.name && a.size_bytes == b.size_bytes &&
         a.associativity == b.associativity && a.line_bytes == b.line_bytes &&
         a.policy == b.policy && a.protected_ways == b.protected_ways;
}
inline bool operator!=(const CacheConfig& a, const CacheConfig& b) {
  return !(a == b);
}

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  double miss_rate() const {
    return accesses == 0
               ? 0.0
               : static_cast<double>(misses) / static_cast<double>(accesses);
  }
};

class CacheLevel {
 public:
  explicit CacheLevel(CacheConfig config, std::uint64_t rng_seed = 7);

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }

  /// Access the line containing `line_address` (an address already shifted
  /// to line granularity is not required; any byte address works).
  /// Returns true on hit.  On miss the line is installed, possibly
  /// evicting another.  The hit path is inline (below); the miss path is
  /// not.
  bool access(std::uintptr_t address, bool is_write);

  /// Probe without updating state or stats (for tests/inspection).
  bool contains(std::uintptr_t address) const;

  /// Invalidate everything (models a cold start / context switch flush).
  void flush();

  /// Evict one random resident line if any (models interference from other
  /// processes sharing the cache).
  void evict_random_line(util::Rng& rng);

  void reset_stats() { stats_ = CacheStats{}; }

 private:
  struct Way {
    std::uintptr_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru_stamp = 0;   // for kLru / kFifo
  };

  std::uintptr_t line_of(std::uintptr_t address) const;
  std::size_t set_of(std::uintptr_t line) const;
  std::size_t choose_victim(std::size_t set);
  void touch(std::size_t set, std::size_t way);
  /// The miss path of access(): install `line` in `set`.  Returns false.
  bool install(std::uintptr_t line, std::size_t set, bool is_write);

  CacheConfig config_;
  CacheStats stats_;
  std::vector<Way> ways_;              // num_sets * associativity
  std::vector<std::uint64_t> plru_;    // one PLRU tree bitmask per set
  std::uint64_t tick_ = 0;
  util::Rng rng_;
};

// Line and set indices are shifts and masks: line_bytes and the set count
// are powers of two (checked by the constructor), and plru_ holds one entry
// per set, so no extra member is needed to cache the geometry.
inline std::uintptr_t CacheLevel::line_of(std::uintptr_t address) const {
  return address >> std::countr_zero(config_.line_bytes);
}

inline std::size_t CacheLevel::set_of(std::uintptr_t line) const {
  return static_cast<std::size_t>(line) & (plru_.size() - 1);
}

inline void CacheLevel::touch(std::size_t set, std::size_t way) {
  Way& w = ways_[set * config_.associativity + way];
  switch (config_.policy) {
    case ReplacementPolicy::kLru:
      w.lru_stamp = ++tick_;
      break;
    case ReplacementPolicy::kFifo:
      // FIFO does not update on hit; the stamp is set at install time.
      break;
    case ReplacementPolicy::kTreePlru: {
      // Walk the tree from root to this way, pointing each node away from
      // the path taken (the classic PLRU promotion).
      std::uint64_t& bits = plru_[set];
      std::size_t node = 0;
      std::size_t lo = 0;
      std::size_t hi = config_.associativity;
      while (hi - lo > 1) {
        const std::size_t mid = (lo + hi) / 2;
        if (way < mid) {
          bits |= (std::uint64_t{1} << node);  // point right (away)
          hi = mid;
          node = 2 * node + 1;
        } else {
          bits &= ~(std::uint64_t{1} << node);  // point left (away)
          lo = mid;
          node = 2 * node + 2;
        }
      }
      break;
    }
    case ReplacementPolicy::kRandom:
      break;
  }
}

inline bool CacheLevel::access(std::uintptr_t address, bool is_write) {
  ++stats_.accesses;
  const std::uintptr_t line = line_of(address);
  const std::size_t set = set_of(line);
  Way* base = &ways_[set * config_.associativity];
  for (std::size_t i = 0; i < config_.associativity; ++i) {
    if (base[i].valid && base[i].tag == line) {
      ++stats_.hits;
      if (is_write) base[i].dirty = true;
      touch(set, i);
      return true;
    }
  }
  return install(line, set, is_write);
}

}  // namespace sce::uarch
