// Sparse paged storage keyed by page id: the one implementation behind the
// simulator's functional memory (mem::BackingStore: 4 KB pages, plus
// 64-byte "pages" for the SUV pool region) and the history oracle's model
// memory (check::ShadowStore).
//
// Pages are keyed in a flat open-addressing map, fronted by a small
// direct-mapped cache of recently touched pages: consecutive accesses to
// one page (the overwhelmingly common pattern -- undo-log walks, line
// copies, sequential workload data, replayed histories) skip the map
// entirely, and the cache is wide enough that many cores interleaving
// accesses to disjoint working sets do not evict each other every round.
// Page payloads are heap-allocated and never freed, so cached pointers
// survive map growth and can only go stale by pointing at live pages.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_hash.hpp"

namespace suvtm {

/// `Page` must be default-constructible; a page is value-initialized (all
/// zero for the word arrays and bitmaps stored here) when first touched.
template <class Page>
class PagedStore {
 public:
  /// Page `id`, created on first touch.
  Page& get(std::uint64_t id) {
    const std::size_t s = slot_of(id);
    if (cached_pages_[s] && cached_ids_[s] == id) return *cached_pages_[s];
    return get_slow(id);
  }

  /// Page `id`, or nullptr when it was never touched.
  const Page* find(std::uint64_t id) const {
    const std::size_t s = slot_of(id);
    if (cached_pages_[s] && cached_ids_[s] == id) return cached_pages_[s];
    return find_slow(id);
  }

  std::size_t size() const { return pages_.size(); }

  /// Visit every page as fn(id, page) in ascending id order. The sorted
  /// drain is load-bearing: callers cap how many violations they report,
  /// so visiting in FlatMap hash order would make *which* violations
  /// surface a function of the map's hash/capacity policy instead of
  /// simulated state (suvlint: nondet-iteration).
  template <class Fn>
  void for_each_sorted(Fn&& fn) const {
    std::vector<std::pair<std::uint64_t, const Page*>> pages;
    pages.reserve(pages_.size());
    // lint: allow(nondet-iteration): order laundered by the sort below
    for (const auto& kv : pages_) pages.emplace_back(kv.first, kv.second.get());
    std::sort(pages.begin(), pages.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [id, page] : pages) fn(id, *page);
  }

 private:
  static constexpr std::size_t kCacheSlots = 64;  // power of 2

  // Contiguous page ids map to distinct slots; the XOR folds higher bits in
  // so same-low-bits pages from different regions don't all collide.
  static std::size_t slot_of(std::uint64_t id) {
    return static_cast<std::size_t>(id ^ (id >> 6)) & (kCacheSlots - 1);
  }

  // The map probes stay out of line so the inlined hit path is a compare
  // plus an indexed read.
  [[gnu::noinline]] Page& get_slow(std::uint64_t id) {
    auto [it, inserted] = pages_.try_emplace(id);
    if (inserted) it->second = std::make_unique<Page>();
    return *remember(id, it->second.get());
  }
  [[gnu::noinline]] const Page* find_slow(std::uint64_t id) const {
    auto it = pages_.find(id);
    return it == pages_.end() ? nullptr : remember(id, it->second.get());
  }
  Page* remember(std::uint64_t id, Page* p) const {
    const std::size_t s = slot_of(id);
    cached_ids_[s] = id;
    cached_pages_[s] = p;
    return p;
  }

  FlatMap<std::uint64_t, std::unique_ptr<Page>> pages_;
  mutable std::array<std::uint64_t, kCacheSlots> cached_ids_{};
  mutable std::array<Page*, kCacheSlots> cached_pages_{};
};

}  // namespace suvtm
