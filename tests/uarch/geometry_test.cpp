// CacheLevel and Tlb index lines, sets and pages with shifts and masks.
// These tests pin that to a division-based reference model on random
// address streams, hit for hit and victim for victim, over geometries the
// default hierarchy never uses: 32- and 128-byte lines, 12- and 16-way
// sets, a single fully associative set, and 8 KiB / 2 MiB pages.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "uarch/cache.hpp"
#include "uarch/tlb.hpp"
#include "util/rng.hpp"

namespace sce::uarch {
namespace {

/// Division-based model of CacheLevel: same replacement policies, line and
/// set indices computed with `/` and `%`.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config, std::uint64_t seed = 7)
      : config_(config),
        sets_(config.size_bytes / (config.associativity * config.line_bytes)),
        ways_(sets_ * config.associativity),
        plru_(sets_, 0),
        rng_(seed) {}

  struct Outcome {
    bool hit = false;
    /// Line address (line index times line size) of the evicted line.
    std::optional<std::uintptr_t> victim;
  };

  Outcome access(std::uintptr_t address, bool is_write) {
    const std::uintptr_t line = address / config_.line_bytes;
    const std::size_t set = static_cast<std::size_t>(line % sets_);
    Way* base = &ways_[set * config_.associativity];
    for (std::size_t i = 0; i < config_.associativity; ++i) {
      if (base[i].valid && base[i].tag == line) {
        if (is_write) base[i].dirty = true;
        touch(set, i);
        return {true, std::nullopt};
      }
    }
    Outcome out;
    const std::size_t victim = choose_victim(set);
    Way& w = base[victim];
    if (w.valid) {
      out.victim = w.tag * config_.line_bytes;
      ++evictions_;
      if (w.dirty) ++writebacks_;
    }
    w = Way{line, true, is_write, ++tick_};
    touch(set, victim);
    return out;
  }

  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t writebacks() const { return writebacks_; }

 private:
  struct Way {
    std::uintptr_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t stamp = 0;
  };

  void touch(std::size_t set, std::size_t way) {
    if (config_.policy == ReplacementPolicy::kLru) {
      ways_[set * config_.associativity + way].stamp = ++tick_;
    } else if (config_.policy == ReplacementPolicy::kTreePlru) {
      std::size_t node = 0, lo = 0, hi = config_.associativity;
      while (hi - lo > 1) {
        const std::size_t mid = (lo + hi) / 2;
        if (way < mid) {
          plru_[set] |= std::uint64_t{1} << node;
          hi = mid;
          node = 2 * node + 1;
        } else {
          plru_[set] &= ~(std::uint64_t{1} << node);
          lo = mid;
          node = 2 * node + 2;
        }
      }
    }
  }

  std::size_t choose_victim(std::size_t set) {
    const Way* base = &ways_[set * config_.associativity];
    for (std::size_t i = 0; i < config_.associativity; ++i)
      if (!base[i].valid) return i;
    switch (config_.policy) {
      case ReplacementPolicy::kLru:
      case ReplacementPolicy::kFifo: {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < config_.associativity; ++i)
          if (base[i].stamp < base[victim].stamp) victim = i;
        return victim;
      }
      case ReplacementPolicy::kTreePlru: {
        std::size_t node = 0, lo = 0, hi = config_.associativity;
        while (hi - lo > 1) {
          const std::size_t mid = (lo + hi) / 2;
          if (plru_[set] & (std::uint64_t{1} << node)) {
            lo = mid;
            node = 2 * node + 2;
          } else {
            hi = mid;
            node = 2 * node + 1;
          }
        }
        return lo;
      }
      case ReplacementPolicy::kRandom:
        return static_cast<std::size_t>(rng_.below(config_.associativity));
    }
    return 0;
  }

  CacheConfig config_;
  std::size_t sets_;
  std::vector<Way> ways_;
  std::vector<std::uint64_t> plru_;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t writebacks_ = 0;
  util::Rng rng_;
};

/// Division-based model of Tlb (LRU within a set, invalid entries first).
class ReferenceTlb {
 public:
  explicit ReferenceTlb(const TlbConfig& config)
      : config_(config),
        sets_(config.entries / config.associativity),
        entries_(config.entries) {}

  struct Outcome {
    bool hit = false;
    /// Base address of the evicted page.
    std::optional<std::uintptr_t> victim;
  };

  Outcome access(std::uintptr_t address) {
    const std::uintptr_t page = address / config_.page_bytes;
    Entry* base = &entries_[(page % sets_) * config_.associativity];
    for (std::size_t i = 0; i < config_.associativity; ++i) {
      if (base[i].valid && base[i].page == page) {
        base[i].stamp = ++tick_;
        return {true, std::nullopt};
      }
    }
    std::size_t victim = 0;
    for (std::size_t i = 0; i < config_.associativity; ++i) {
      if (!base[i].valid) {
        victim = i;
        break;
      }
      if (base[i].stamp < base[victim].stamp) victim = i;
    }
    Outcome out;
    if (base[victim].valid) out.victim = base[victim].page * config_.page_bytes;
    base[victim] = Entry{page, true, ++tick_};
    return out;
  }

 private:
  struct Entry {
    std::uintptr_t page = 0;
    bool valid = false;
    std::uint64_t stamp = 0;
  };

  TlbConfig config_;
  std::size_t sets_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
};

/// Random addresses over three times `span` bytes above a high base, so
/// the stream both hits and evicts and the upper address bits are set.
std::vector<std::uintptr_t> address_stream(std::size_t span, std::size_t n,
                                           std::uint64_t seed) {
  constexpr std::uintptr_t kBase = 0x7f3a00000000ULL;
  util::Rng rng(seed);
  std::vector<std::uintptr_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(kBase + static_cast<std::uintptr_t>(rng.below(3 * span)));
  return out;
}

void expect_cache_matches_reference(const CacheConfig& config) {
  SCOPED_TRACE(config.name + " / " + to_string(config.policy));
  CacheLevel cache(config);
  ReferenceCache reference(config);
  const auto stream = address_stream(config.size_bytes, 20000, 0xCAC4E);
  util::Rng writes(17);
  std::size_t victims = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::uintptr_t a = stream[i];
    const bool is_write = writes.chance(0.3);
    const ReferenceCache::Outcome want = reference.access(a, is_write);
    ASSERT_EQ(cache.access(a, is_write), want.hit) << "access " << i;
    ASSERT_TRUE(cache.contains(a)) << "access " << i;
    if (want.victim) {
      ++victims;
      ASSERT_FALSE(cache.contains(*want.victim)) << "access " << i;
    }
  }
  const CacheStats& s = cache.stats();
  EXPECT_EQ(s.evictions, reference.evictions());
  EXPECT_EQ(s.writebacks, reference.writebacks());
  EXPECT_EQ(s.evictions, victims);
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(victims, 0u);
}

TEST(CacheGeometry, ShiftMaskIndexingMatchesDivisionReference) {
  const ReplacementPolicy policies[] = {
      ReplacementPolicy::kLru, ReplacementPolicy::kTreePlru,
      ReplacementPolicy::kFifo, ReplacementPolicy::kRandom};
  for (ReplacementPolicy policy : policies) {
    // 32-byte lines, 8 ways, 64 sets.
    expect_cache_matches_reference({"line32", 16 * 1024, 8, 32, policy});
    // 128-byte lines, 16 ways, 32 sets.
    expect_cache_matches_reference({"line128-16way", 64 * 1024, 16, 128,
                                    policy});
    // 12 ways (a non-power-of-two PLRU tree), 64 sets.
    expect_cache_matches_reference({"12way", 48 * 1024, 12, 64, policy});
    // One set: fully associative, the set mask is zero.
    expect_cache_matches_reference({"fully-assoc", 16 * 64, 16, 64, policy});
  }
}

void expect_tlb_matches_reference(const TlbConfig& config) {
  SCOPED_TRACE(::testing::Message() << "page_bytes " << config.page_bytes
                                    << ", " << config.entries << "x"
                                    << config.associativity);
  Tlb tlb(config);
  ReferenceTlb reference(config);
  const auto stream =
      address_stream(config.entries * config.page_bytes, 20000, 0x71B);
  std::size_t hits = 0;
  std::size_t victims = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const ReferenceTlb::Outcome want = reference.access(stream[i]);
    ASSERT_EQ(tlb.access(stream[i]), want.hit) << "access " << i;
    hits += want.hit;
    if (want.victim) {
      // Tlb has no probe, so look the victim up in a copy.
      ++victims;
      Tlb probe = tlb;
      ASSERT_FALSE(probe.access(*want.victim)) << "access " << i;
    }
  }
  EXPECT_EQ(tlb.stats().hits, hits);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(victims, 0u);
}

TEST(TlbGeometry, ShiftIndexingMatchesDivisionReference) {
  expect_tlb_matches_reference({64, 4, 8 * 1024});
  expect_tlb_matches_reference({32, 4, 2 * 1024 * 1024});
  expect_tlb_matches_reference({16, 16, 2 * 1024 * 1024});  // one set
}

}  // namespace
}  // namespace sce::uarch
