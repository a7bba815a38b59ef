#include "mem/tlb.hpp"

namespace suvtm::mem {

Tlb::Tlb(std::uint32_t entries) : entries_(entries) {}

int Tlb::find_slot(std::uint64_t page) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].valid && entries_[i].page == page) return static_cast<int>(i);
  }
  return -1;
}

Tlb::Access Tlb::access_slow(std::uint64_t page) {
  int slot = find_slot(page);
  if (slot >= 0) {
    entries_[slot].lru = tick_;
    ++hits_;
    last_page_ = page;
    last_slot_ = static_cast<std::uint32_t>(slot);
    return {0, last_slot_, true};
  }
  ++misses_;
  // Fill: pick an invalid slot, else LRU victim.
  std::size_t victim = 0;
  std::uint64_t best = ~0ull;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].valid) {
      victim = i;
      break;
    }
    if (entries_[i].lru < best) {
      best = entries_[i].lru;
      victim = i;
    }
  }
  entries_[victim] = {page, tick_, true};
  last_page_ = page;
  last_slot_ = static_cast<std::uint32_t>(victim);
  return {kMissLatency, last_slot_, false};
}

}  // namespace suvtm::mem
