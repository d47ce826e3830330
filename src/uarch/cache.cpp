#include "uarch/cache.hpp"

#include <bit>

#include "util/error.hpp"

namespace sce::uarch {

std::string to_string(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kTreePlru:
      return "tree-plru";
    case ReplacementPolicy::kFifo:
      return "fifo";
    case ReplacementPolicy::kRandom:
      return "random";
  }
  return "?";
}

namespace {
bool is_power_of_two(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

CacheLevel::CacheLevel(CacheConfig config, std::uint64_t rng_seed)
    : config_(std::move(config)), rng_(rng_seed) {
  if (!is_power_of_two(config_.line_bytes))
    throw InvalidArgument("CacheLevel: line size must be a power of two");
  if (config_.associativity == 0)
    throw InvalidArgument("CacheLevel: associativity must be positive");
  if (config_.size_bytes %
          (config_.associativity * config_.line_bytes) !=
      0)
    throw InvalidArgument(
        "CacheLevel: size must be a multiple of associativity * line size");
  const std::size_t sets = config_.num_sets();
  if (!is_power_of_two(sets))
    throw InvalidArgument("CacheLevel: number of sets must be a power of two");
  if (config_.associativity > 64)
    throw InvalidArgument("CacheLevel: associativity > 64 unsupported");
  ways_.assign(sets * config_.associativity, Way{});
  plru_.assign(sets, 0);
}

// Line and set indices are shifts and masks: line_bytes and the set count
// are powers of two (checked by the constructor), and plru_ holds one entry
// per set, so no extra member is needed to cache the geometry.
std::uintptr_t CacheLevel::line_of(std::uintptr_t address) const {
  return address >> std::countr_zero(config_.line_bytes);
}

std::size_t CacheLevel::set_of(std::uintptr_t line) const {
  return static_cast<std::size_t>(line) & (plru_.size() - 1);
}

// Inline: access() calls it on every hit, which is nearly every access.
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

std::size_t CacheLevel::choose_victim(std::size_t set) {
  const std::size_t assoc = config_.associativity;
  Way* base = &ways_[set * assoc];
  // Prefer an invalid way regardless of policy.
  for (std::size_t i = 0; i < assoc; ++i)
    if (!base[i].valid) return i;
  switch (config_.policy) {
    case ReplacementPolicy::kLru:
    case ReplacementPolicy::kFifo: {
      std::size_t victim = 0;
      for (std::size_t i = 1; i < assoc; ++i)
        if (base[i].lru_stamp < base[victim].lru_stamp) victim = i;
      return victim;
    }
    case ReplacementPolicy::kTreePlru: {
      // Convention: bit set means the left half was used more recently, so
      // the victim search descends right; bit clear descends left.  touch()
      // maintains the same convention.
      const std::uint64_t bits = plru_[set];
      std::size_t node = 0;
      std::size_t lo = 0;
      std::size_t hi = assoc;
      while (hi - lo > 1) {
        const std::size_t mid = (lo + hi) / 2;
        if (bits & (std::uint64_t{1} << node)) {
          lo = mid;  // bit set -> victim on the right
          node = 2 * node + 2;
        } else {
          hi = mid;  // bit clear -> victim on the left
          node = 2 * node + 1;
        }
      }
      return lo;
    }
    case ReplacementPolicy::kRandom:
      return static_cast<std::size_t>(rng_.below(assoc));
  }
  return 0;
}

bool CacheLevel::access(std::uintptr_t address, bool is_write) {
  ++stats_.accesses;
  const std::uintptr_t line = line_of(address);
  const std::size_t set = set_of(line);
  const std::size_t assoc = config_.associativity;
  Way* base = &ways_[set * assoc];
  for (std::size_t i = 0; i < assoc; ++i) {
    if (base[i].valid && base[i].tag == line) {
      ++stats_.hits;
      if (is_write) base[i].dirty = true;
      touch(set, i);
      return true;
    }
  }
  ++stats_.misses;
  const std::size_t victim = choose_victim(set);
  Way& w = base[victim];
  if (w.valid) {
    ++stats_.evictions;
    if (w.dirty) ++stats_.writebacks;
  }
  w.tag = line;
  w.valid = true;
  w.dirty = is_write;
  w.lru_stamp = ++tick_;  // install time (LRU and FIFO both stamp here)
  touch(set, victim);
  return false;
}

bool CacheLevel::contains(std::uintptr_t address) const {
  const std::uintptr_t line = line_of(address);
  const std::size_t set = set_of(line);
  const Way* base = &ways_[set * config_.associativity];
  for (std::size_t i = 0; i < config_.associativity; ++i)
    if (base[i].valid && base[i].tag == line) return true;
  return false;
}

void CacheLevel::flush() {
  for (Way& w : ways_) w = Way{};
  for (auto& bits : plru_) bits = 0;
}

void CacheLevel::evict_random_line(util::Rng& rng) {
  // Pick a random set/way outside the protected partition; if valid,
  // invalidate it (models a co-tenant displacing a line).
  if (config_.protected_ways >= config_.associativity) return;
  const std::size_t sets = config_.num_sets();
  const std::size_t unprotected =
      config_.associativity - config_.protected_ways;
  const std::size_t set = static_cast<std::size_t>(rng.below(sets));
  const std::size_t way =
      config_.protected_ways +
      static_cast<std::size_t>(rng.below(unprotected));
  Way& w = ways_[set * config_.associativity + way];
  if (w.valid) {
    w = Way{};
  }
}

}  // namespace sce::uarch
