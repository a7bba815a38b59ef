// Functional storage for the simulated physical address space.
//
// The simulator is functional as well as timing-approximate: workloads store
// real 64-bit values so that transactional isolation/atomicity invariants can
// be tested (and SUV's redirection machinery verified end-to-end, not just
// timed). Storage is paged and allocated lazily (common/paged_store.hpp);
// untouched memory reads 0.
//
// Two granularities: workload memory lives in 4 KB pages, while the SUV
// preserved-pool region (addresses >= kRedirectPoolBase) is stored one
// 64-byte line at a time. Pool lines are scattered across a 16 GiB region
// per core (suv/pool.cpp), so page-granular storage would zero a fresh
// 4 KB page for nearly every redirect target.
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
    const std::uint64_t* w = find_line(line_of(a));
    return w ? w[word_in_line(a)] : 0;
  }

  /// Write the aligned 64-bit word containing `a`.
  void store(Addr a, std::uint64_t v) {
    get_line(line_of(a))[word_in_line(a)] = v;
  }

  /// Copy one 64-byte line worth of words from `src_line` to `dst_line`.
  /// Used by SUV on (re)direction. Resolves each line's storage once.
  void copy_line(LineAddr src_line, LineAddr dst_line);

  /// Workload (non-pool) 4 KB pages touched.
  std::size_t pages_touched() const { return pages_.size(); }

  /// Raw read-only view of one allocated workload page's words (nullptr
  /// when the page was never touched). The checker's image snapshot and
  /// sweeps use it so a 512-word page costs one map probe instead of 512
  /// loads.
  const std::uint64_t* page_words(std::uint64_t page_id) const {
    const Page* p = pages_.find(page_id);
    return p ? p->data() : nullptr;
  }

  /// Visit the page index of every allocated workload page (the word at
  /// byte address `id * kPageBytes + i * kWordBytes` is readable via load),
  /// in ascending page order. Used by the checker's full-image sweeps,
  /// which exempt the pool region; pages are never freed.
  template <class Fn>
  void for_each_page_id(Fn&& fn) const {
    pages_.for_each_sorted([&](std::uint64_t id, const Page&) { fn(id); });
  }

 private:
  static constexpr std::size_t kWordsPerPage = kPageBytes / kWordBytes;
  using Page = std::array<std::uint64_t, kWordsPerPage>;
  using Line = std::array<std::uint64_t, kWordsPerLine>;

  static bool in_pool(LineAddr l) { return l >= line_of(kRedirectPoolBase); }

  /// Line `l`'s words, or nullptr when it was never written.
  const std::uint64_t* find_line(LineAddr l) const {
    if (in_pool(l)) {
      const Line* p = lines_.find(l);
      return p ? p->data() : nullptr;
    }
    const Page* p = pages_.find(l / kLinesPerPage);
    return p ? p->data() + (l % kLinesPerPage) * kWordsPerLine : nullptr;
  }
  /// Line `l`'s words, created (zeroed) on first touch.
  std::uint64_t* get_line(LineAddr l) {
    if (in_pool(l)) return lines_.get(l).data();
    return pages_.get(l / kLinesPerPage).data() +
           (l % kLinesPerPage) * kWordsPerLine;
  }

  PagedStore<Page> pages_;  // workload memory, by page id
  PagedStore<Line> lines_;  // the preserved-pool region, by line address
};

}  // namespace suvtm::mem
