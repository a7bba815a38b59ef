// Functional storage for the simulated physical address space.
//
// The simulator is functional as well as timing-approximate: workloads store
// real 64-bit values so that transactional isolation/atomicity invariants can
// be tested (and SUV's redirection machinery verified end-to-end, not just
// timed). Storage is paged and allocated lazily (common/paged_store.hpp);
// untouched memory reads 0.
#pragma once

#include <array>
#include <cstdint>

#include "common/paged_store.hpp"
#include "common/types.hpp"

namespace suvtm::mem {

class BackingStore {
 public:
  /// Read the aligned 64-bit word containing `a`. Inline: every simulated
  /// load/store lands here, and the cached-page hit is a compare plus an
  /// indexed read.
  std::uint64_t load(Addr a) const {
    const Page* p = pages_.find(page_of(a));
    if (!p) return 0;
    return (*p)[(a % kPageBytes) / kWordBytes];
  }

  /// Write the aligned 64-bit word containing `a`.
  void store(Addr a, std::uint64_t v) {
    pages_.get(page_of(a))[(a % kPageBytes) / kWordBytes] = v;
  }

  /// Copy one 64-byte line worth of words from `src_line` to `dst_line`.
  /// Used by SUV on (re)direction and FasTM functional modelling. Resolves
  /// each page exactly once (a line never straddles a page boundary).
  void copy_line(LineAddr src_line, LineAddr dst_line);

  std::size_t pages_touched() const { return pages_.size(); }

  /// Raw read-only view of one allocated page's words (nullptr when the
  /// page was never touched). The checker's image snapshot and sweeps use
  /// it so a 512-word page costs one map probe instead of 512 loads.
  const std::uint64_t* page_words(std::uint64_t page_id) const {
    const Page* p = pages_.find(page_id);
    return p ? p->data() : nullptr;
  }

  /// Visit the page index of every allocated page (the word at byte address
  /// `id * kPageBytes + i * kWordBytes` is readable via load), in ascending
  /// page order. Used by the checker's full-image sweeps; pages are never
  /// freed.
  template <class Fn>
  void for_each_page_id(Fn&& fn) const {
    pages_.for_each_sorted([&](std::uint64_t id, const Page&) { fn(id); });
  }

 private:
  static constexpr std::size_t kWordsPerPage = kPageBytes / kWordBytes;
  using Page = std::array<std::uint64_t, kWordsPerPage>;

  PagedStore<Page> pages_;
};

}  // namespace suvtm::mem
