#include "uarch/tlb.hpp"

#include <bit>

#include "util/error.hpp"

namespace sce::uarch {

namespace {
bool is_power_of_two(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

Tlb::Tlb(TlbConfig config, std::uint64_t /*rng_seed*/)
    : config_(config) {
  if (config_.associativity == 0 || config_.entries == 0)
    throw InvalidArgument("Tlb: entries and associativity must be positive");
  if (config_.entries % config_.associativity != 0)
    throw InvalidArgument("Tlb: entries must be a multiple of associativity");
  if (!is_power_of_two(config_.page_bytes))
    throw InvalidArgument("Tlb: page size must be a power of two");
  num_sets_ = config_.entries / config_.associativity;
  if (!is_power_of_two(num_sets_))
    throw InvalidArgument("Tlb: set count must be a power of two");
  entries_.assign(config_.entries, Entry{});
}

bool Tlb::access(std::uintptr_t address) {
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
  ++stats_.misses;
  // LRU replacement within the set; invalid entries first.
  std::size_t victim = 0;
  for (std::size_t i = 0; i < config_.associativity; ++i) {
    if (!base[i].valid) {
      victim = i;
      break;
    }
    if (base[i].stamp < base[victim].stamp) victim = i;
  }
  base[victim] = Entry{page, true, ++tick_};
  return false;
}

void Tlb::flush() {
  for (Entry& e : entries_) e = Entry{};
}

}  // namespace sce::uarch
