// Simple set-associative data TLB model.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace sce::uarch {

struct TlbConfig {
  std::size_t entries = 64;
  std::size_t associativity = 4;
  std::size_t page_bytes = 4096;
};

inline bool operator==(const TlbConfig& a, const TlbConfig& b) {
  return a.entries == b.entries && a.associativity == b.associativity &&
         a.page_bytes == b.page_bytes;
}
inline bool operator!=(const TlbConfig& a, const TlbConfig& b) {
  return !(a == b);
}

struct TlbStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class Tlb {
 public:
  explicit Tlb(TlbConfig config = {}, std::uint64_t rng_seed = 13);

  /// Translate the page containing `address`; returns true on TLB hit.
  /// The hit path is inline (below); the miss path is not.
  bool access(std::uintptr_t address);

  const TlbStats& stats() const { return stats_; }
  const TlbConfig& config() const { return config_; }

  void flush();
  void reset_stats() { stats_ = TlbStats{}; }

 private:
  struct Entry {
    std::uintptr_t page = 0;
    bool valid = false;
    std::uint64_t stamp = 0;
  };

  /// The miss path of access(): install `page` in the set at `base`.
  /// Returns false.
  bool install(std::uintptr_t page, Entry* base);

  TlbConfig config_;
  TlbStats stats_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  std::size_t num_sets_ = 1;
};

inline bool Tlb::access(std::uintptr_t address) {
  ++stats_.accesses;
  const std::uintptr_t page = address >> std::countr_zero(config_.page_bytes);
  const std::size_t set = static_cast<std::size_t>(page) & (num_sets_ - 1);
  Entry* base = &entries_[set * config_.associativity];
  for (std::size_t i = 0; i < config_.associativity; ++i) {
    if (base[i].valid && base[i].page == page) {
      ++stats_.hits;
      base[i].stamp = ++tick_;
      return true;
    }
  }
  return install(page, base);
}

}  // namespace sce::uarch
