// Recording and replay storage for the history oracle (history.hpp), built
// for the hot path the SUVTM_CHECK_HOOK sites sit on:
//
//   - ArenaPool / RecStream: per-transaction append-only streams of POD
//     AccessRecs over pooled 4 KB pages. The append fast path is a bump
//     pointer and one branch; page acquisition, frame truncation and
//     wholesale release are the out-of-line slow paths. Pages go back to
//     the pool the moment a stream is replayed (the oracle's eager
//     prefix retirement), so steady-state arena footprint is bounded by
//     the live-transaction window, not by history length.
//
//   - ShadowStore: the oracle's model memory as a page-granular
//     direct-indexed store (values plus defined/written bitmaps per 4 KB
//     page, in a PagedStore like the simulator's backing store), so a
//     replayed access is a load and a compare instead of a hash probe.
//     The `written` bitmap doubles as the committed-write set the
//     Checker's untouched-word sweep consults, which is why it is tracked
//     separately from `defined` (reads define a word's initial contents
//     without writing it).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/paged_store.hpp"
#include "common/types.hpp"

namespace suvtm::check {

/// Aligned-word access as observed by the simulated core, packed to 24
/// bytes: word addresses are 8-byte aligned, so the access kind rides in
/// the address's low bit. The packing matters -- every record is written
/// once at the hook site and read once at replay, so record size is
/// directly arena-bandwidth on both of the checker's hot paths.
struct AccessRec {
  std::uint64_t word_kind;  ///< word address | is_write in bit 0
  std::uint64_t value;
  Cycle cycle;

  static AccessRec make(Addr word, std::uint64_t value, Cycle cycle,
                        bool is_write) {
    return {word | (is_write ? 1u : 0u), value, cycle};
  }
  Addr word() const { return word_kind & ~std::uint64_t{7}; }
  bool is_write() const { return (word_kind & 1) != 0; }
};
static_assert(sizeof(AccessRec) == 24, "packed: 170 records per 4 KB page");

/// One pooled arena page: a fixed run of AccessRecs plus the intrusive
/// link RecStream chains pages with.
struct RecPage {
  static constexpr std::uint32_t kRecs = 170;  // ~4 KB per page
  AccessRec recs[kRecs];
  RecPage* next = nullptr;
};

/// Free-list allocator for RecPages. Owns every page it ever created;
/// acquire/release recycle them without touching the system allocator.
class ArenaPool {
 public:
  RecPage* acquire() {
    if (free_.empty()) {
      all_.push_back(std::make_unique<RecPage>());
      return all_.back().get();
    }
    RecPage* p = free_.back();
    free_.pop_back();
    p->next = nullptr;
    return p;
  }
  void release(RecPage* p) { free_.push_back(p); }

  std::size_t pages_allocated() const { return all_.size(); }
  std::size_t pages_free() const { return free_.size(); }

 private:
  std::vector<std::unique_ptr<RecPage>> all_;
  std::vector<RecPage*> free_;
};

/// Append-only record stream over pooled pages. Move-only: moving steals
/// the page chain. Pages are owned by the pool; a stream must be drained
/// through clear()/consume()/truncate() to recycle them (an undrained
/// stream merely keeps its pages out of the free list until the pool is
/// destroyed).
class RecStream {
 public:
  RecStream() = default;
  RecStream(const RecStream&) = delete;
  RecStream& operator=(const RecStream&) = delete;
  RecStream(RecStream&& o) noexcept { steal(o); }
  RecStream& operator=(RecStream&& o) noexcept {
    if (this != &o) steal(o);
    return *this;
  }

  /// Bump-pointer fast path; false when the tail page is full (or absent).
  bool try_append(const AccessRec& r) {
    if (top_ == end_) return false;
    *top_++ = r;
    ++count_;
    return true;
  }

  /// Slow path: chain a fresh page, then append.
  void append_new_page(ArenaPool& pool, const AccessRec& r) {
    RecPage* p = pool.acquire();
    if (tail_ != nullptr) tail_->next = p;
    else head_ = p;
    tail_ = p;
    top_ = p->recs;
    end_ = p->recs + RecPage::kRecs;
    *top_++ = r;
    ++count_;
  }

  std::uint64_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Keep the first `n` records, releasing every page past them (nested
  /// frame rollback). `n` must not exceed size().
  void truncate(ArenaPool& pool, std::uint64_t n) {
    assert(n <= count_);
    if (n == count_) return;
    if (n == 0) {
      clear(pool);
      return;
    }
    const std::uint64_t keep_pages = (n + RecPage::kRecs - 1) / RecPage::kRecs;
    RecPage* p = head_;
    for (std::uint64_t i = 1; i < keep_pages; ++i) p = p->next;
    for (RecPage* q = p->next; q != nullptr;) {
      RecPage* nx = q->next;
      pool.release(q);
      q = nx;
    }
    p->next = nullptr;
    tail_ = p;
    top_ = p->recs + (n - (keep_pages - 1) * RecPage::kRecs);
    end_ = p->recs + RecPage::kRecs;
    count_ = n;
  }

  /// Visit every record in append order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    std::uint64_t remaining = count_;
    for (const RecPage* p = head_; p != nullptr; p = p->next) {
      const std::uint32_t m = remaining < RecPage::kRecs
                                  ? static_cast<std::uint32_t>(remaining)
                                  : RecPage::kRecs;
      for (std::uint32_t i = 0; i < m; ++i) fn(p->recs[i]);
      remaining -= m;
    }
  }

  /// Visit every record in append order, releasing each page to the pool
  /// as soon as it has been read (the replay-time prefix retirement).
  /// Leaves the stream empty.
  template <class Fn>
  void consume(ArenaPool& pool, Fn&& fn) {
    std::uint64_t remaining = count_;
    for (RecPage* p = head_; p != nullptr;) {
      const std::uint32_t m = remaining < RecPage::kRecs
                                  ? static_cast<std::uint32_t>(remaining)
                                  : RecPage::kRecs;
      for (std::uint32_t i = 0; i < m; ++i) fn(p->recs[i]);
      remaining -= m;
      RecPage* nx = p->next;
      pool.release(p);
      p = nx;
    }
    reset();
  }

  /// Release every page without visiting (aborted attempt).
  void clear(ArenaPool& pool) {
    for (RecPage* p = head_; p != nullptr;) {
      RecPage* nx = p->next;
      pool.release(p);
      p = nx;
    }
    reset();
  }

 private:
  void steal(RecStream& o) {
    head_ = o.head_;
    tail_ = o.tail_;
    top_ = o.top_;
    end_ = o.end_;
    count_ = o.count_;
    o.reset();
  }
  void reset() {
    head_ = tail_ = nullptr;
    top_ = end_ = nullptr;
    count_ = 0;
  }

  RecPage* head_ = nullptr;
  RecPage* tail_ = nullptr;
  AccessRec* top_ = nullptr;   // next free slot in the tail page
  AccessRec* end_ = nullptr;   // one past the tail page's last slot
  std::uint64_t count_ = 0;
};

/// Page-granular model memory: per 4 KB page, word values plus defined and
/// written bitmaps, kept in a PagedStore, so within a page every access is
/// a direct array index.
class ShadowStore {
 public:
  static constexpr std::uint32_t kWords =
      static_cast<std::uint32_t>(kPageBytes / kWordBytes);

  struct Page {
    std::uint64_t val[kWords];
    std::uint64_t defined[kWords / 64];
    std::uint64_t written[kWords / 64];
  };

  /// Replayed write: store the value, mark defined + written.
  void store(Addr a, std::uint64_t v) {
    Page& p = pages_.get(a / kPageBytes);
    const std::uint32_t i = word_index(a);
    p.val[i] = v;
    p.defined[i >> 6] |= 1ull << (i & 63);
    p.written[i >> 6] |= 1ull << (i & 63);
  }

  /// Replayed read: the first reference in serialization order defines the
  /// word's initial contents as `observed` (and returns true); otherwise
  /// returns whether the stored value matches, leaving it in `*expect`.
  bool read_check(Addr a, std::uint64_t observed, std::uint64_t* expect) {
    Page& p = pages_.get(a / kPageBytes);
    const std::uint32_t i = word_index(a);
    const std::uint64_t bit = 1ull << (i & 63);
    if ((p.defined[i >> 6] & bit) == 0) {
      p.val[i] = observed;
      p.defined[i >> 6] |= bit;
      return true;
    }
    *expect = p.val[i];
    return p.val[i] == observed;
  }

  /// Was this word ever target of a replayed (committed/non-transactional)
  /// write? Words only read-defined report false.
  bool written(Addr a) const {
    const Page* p = pages_.find(a / kPageBytes);
    if (p == nullptr) return false;
    const std::uint32_t i = word_index(a);
    return (p->written[i >> 6] & (1ull << (i & 63))) != 0;
  }

  /// Visit every defined word in ascending address order as
  /// fn(addr, value, written). Deterministic by construction (page ids are
  /// sorted, words walk in index order).
  template <class Fn>
  void for_each_defined_sorted(Fn&& fn) const {
    pages_.for_each_sorted([&](std::uint64_t id, const Page& p) {
      const Addr base = id * kPageBytes;
      for (std::uint32_t i = 0; i < kWords; ++i) {
        const std::uint64_t bit = 1ull << (i & 63);
        if ((p.defined[i >> 6] & bit) == 0) continue;
        fn(base + static_cast<Addr>(i) * kWordBytes, p.val[i],
           (p.written[i >> 6] & bit) != 0);
      }
    });
  }

  /// Read-only page view for the checker's untouched-word sweep (nullptr
  /// when no replayed access touched the page). Word `i`'s committed-write
  /// bit is `written[i >> 6] >> (i & 63) & 1`.
  const Page* page(std::uint64_t id) const { return pages_.find(id); }

 private:
  static std::uint32_t word_index(Addr a) {
    return static_cast<std::uint32_t>((a & (kPageBytes - 1)) / kWordBytes);
  }

  PagedStore<Page> pages_;
};

}  // namespace suvtm::check
