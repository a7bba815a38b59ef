// Per-core TLB model.
//
// The simulated address space is identity-mapped (virtual == physical), so
// the TLB exists for two reasons: (1) timing -- a miss costs a page walk --
// and (2) structure -- SUV redirect entries reference pool pages by TLB
// index (paper Figure 3), so the TLB's indexing behaviour is part of the
// reproduced hardware.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace suvtm::mem {

class Tlb {
 public:
  static constexpr Cycle kMissLatency = 30;  // page walk (Table III)

  explicit Tlb(std::uint32_t entries);

  struct Access {
    Cycle latency;       // 0 on hit, kMissLatency on walk
    std::uint32_t slot;  // TLB slot now holding the page (SUV entry index)
    bool hit;
  };

  /// Touch the page containing `a`; fills on miss (LRU replacement).
  /// The last-hit page is remembered so the common same-page-as-last-time
  /// access skips the associative scan entirely (pure host optimization:
  /// the returned latency/slot are identical either way).
  Access access(Addr a) {
    const std::uint64_t page = page_of(a);
    ++tick_;
    if (page == last_page_ && entries_[last_slot_].valid &&
        entries_[last_slot_].page == page) {
      entries_[last_slot_].lru = tick_;
      ++hits_;
      return {0, last_slot_, true};
    }
    return access_slow(page);
  }

  /// Slot currently mapping `page`, or -1. Does not update LRU.
  int find_slot(std::uint64_t page) const;

  /// Page mapped by `slot` (valid slots only).
  std::uint64_t page_at(std::uint32_t slot) const { return entries_[slot].page; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::uint64_t page = ~0ull;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  Access access_slow(std::uint64_t page);

  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t last_page_ = ~0ull;  // MRU fast path
  std::uint32_t last_slot_ = 0;
};

}  // namespace suvtm::mem
