// Header-only flat-container kit for the per-access hot path.
//
// Every simulated load/store consults several associative structures (txn
// read/write sets, the directory, the backing store's page map, SUV's
// redirect tables). The node-based std::unordered_map/set they started as
// pay a heap allocation plus a pointer chase per operation; these
// open-addressing replacements keep key/value pairs in one contiguous slot
// array with linear probing, so the common hit costs one hash, one probe
// and zero indirections.
//
// Shared properties (the determinism argument, DESIGN.md section 9):
//   - power-of-two capacity, index = mix64(key) & mask;
//   - value-based hashing only: slot placement is a pure function of the
//     key *values* and the insert/erase sequence, never of pointer
//     addresses, so two runs that perform the same operations produce the
//     same tables (and the same iteration order) -- this is what keeps
//     serial == jobs=1 == jobs=4 bit-identical;
//   - backshift (Robin Hood style tombstone-free) erase: deleting an entry
//     shifts displaced successors back toward their home slot, so probe
//     chains never accumulate tombstones and lookup cost stays bounded
//     under churn;
//   - clear() zeroes occupancy but keeps the allocation, because the
//     simulator clears transaction footprints millions of times per run.
//
// Pointer/iterator stability: NONE across insert/erase (open addressing
// moves slots). Callers must not hold references across mutating calls;
// the heap payloads they point at (e.g. BackingStore pages) stay put.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace suvtm {

/// 64-bit finalizer-style mixer (murmur3 fmix64 constants): full avalanche,
/// deterministic across platforms, and a pure function of the key value.
constexpr std::uint64_t hash_mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Default hasher for integer keys (Addr, LineAddr, CoreId, site ids).
struct FlatHash {
  std::size_t operator()(std::uint64_t k) const {
    return static_cast<std::size_t>(hash_mix64(k));
  }
};

namespace detail {

/// Common open-addressing machinery. `Slot` is the stored record, `KeyOf`
/// extracts the key from a slot. Occupancy lives in a parallel byte vector
/// so Slot stays a plain aggregate.
template <class K, class Slot, class KeyOf, class Hash>
class FlatTable {
 public:
  class iterator {
   public:
    using value_type = Slot;
    using reference = Slot&;
    using pointer = Slot*;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    iterator() = default;
    iterator(FlatTable* t, std::size_t i) : t_(t), i_(i) { skip(); }
    Slot& operator*() const { return t_->slots_[i_]; }
    Slot* operator->() const { return &t_->slots_[i_]; }
    iterator& operator++() {
      ++i_;
      skip();
      return *this;
    }
    iterator operator++(int) {
      iterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }
    std::size_t pos() const { return i_; }

   private:
    friend class FlatTable;
    void skip() {
      while (t_ && i_ < t_->slots_.size() && !t_->used_[i_]) ++i_;
    }
    FlatTable* t_ = nullptr;
    std::size_t i_ = 0;
  };

  class const_iterator {
   public:
    using value_type = Slot;
    using reference = const Slot&;
    using pointer = const Slot*;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    const_iterator(const FlatTable* t, std::size_t i) : t_(t), i_(i) { skip(); }
    const Slot& operator*() const { return t_->slots_[i_]; }
    const Slot* operator->() const { return &t_->slots_[i_]; }
    const_iterator& operator++() {
      ++i_;
      skip();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    void skip() {
      while (t_ && i_ < t_->slots_.size() && !t_->used_[i_]) ++i_;
    }
    const FlatTable* t_ = nullptr;
    std::size_t i_ = 0;
  };

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, slots_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, slots_.size()); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Drop all entries but keep the slot allocation (hot clear).
  void clear() {
    if (size_ == 0) return;
    // Word-scan the occupancy bytes: cleared tables are mostly free slots
    // (transaction-lifetime tables grow to a high-water capacity and reset
    // every attempt), so an all-free 8-slot group costs one 64-bit load.
    const std::size_t n = slots_.size();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, used_.data() + i, 8);
      if (w == 0) continue;
      for (std::size_t j = i; j < i + 8; ++j) {
        if (used_[j]) {
          slots_[j] = Slot{};
          used_[j] = 0;
        }
      }
    }
    for (; i < n; ++i) {
      if (used_[i]) {
        slots_[i] = Slot{};
        used_[i] = 0;
      }
    }
    size_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;  // target load factor <= 0.75
    if (cap > slots_.size()) rehash(cap);
  }

  /// Slot index of `k`, or npos.
  std::size_t find_index(const K& k) const {
    if (size_ == 0) return npos;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash{}(k) & mask;
    while (used_[i]) {
      if (KeyOf{}(slots_[i]) == k) return i;
      i = (i + 1) & mask;
    }
    return npos;
  }

  /// Slot for `k`, inserting a default slot (key set) if absent.
  /// Returns {index, inserted}.
  std::pair<std::size_t, bool> insert_key(const K& k) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash{}(k) & mask;
    while (used_[i]) {
      if (KeyOf{}(slots_[i]) == k) return {i, false};
      i = (i + 1) & mask;
    }
    used_[i] = 1;
    KeyOf{}.set(slots_[i], k);
    ++size_;
    return {i, true};
  }

  /// Backshift erase of the entry at `pos` (must be occupied): scan the
  /// probe chain forward, shifting back every entry whose home slot lies at
  /// or before the hole, until a gap ends the chain.
  void erase_index(std::size_t pos) {
    assert(used_[pos]);
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = pos;
    std::size_t next = (pos + 1) & mask;
    while (used_[next]) {
      const std::size_t home = Hash{}(KeyOf{}(slots_[next])) & mask;
      // Cyclic distance from home to next vs from hole to next: the entry
      // may move into the hole only if its home is not inside (hole, next].
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        slots_[hole] = std::move(slots_[next]);
        hole = next;
      }
      next = (next + 1) & mask;
    }
    slots_[hole] = Slot{};
    used_[hole] = 0;
    --size_;
  }

  std::size_t erase_key(const K& k) {
    const std::size_t i = find_index(k);
    if (i == npos) return 0;
    erase_index(i);
    return 1;
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 protected:
  static constexpr std::size_t kMinCapacity = 16;

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_ = std::vector<Slot>(new_cap);  // value-init; works for move-only V
    used_.assign(new_cap, 0);
    const std::size_t mask = new_cap - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j = Hash{}(KeyOf{}(old_slots[i])) & mask;
      while (used_[j]) j = (j + 1) & mask;
      slots_[j] = std::move(old_slots[i]);
      used_[j] = 1;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
};

}  // namespace detail

/// Open-addressing hash map. Keys and mapped values must be
/// default-constructible and movable; a default-constructed value denotes
/// an empty slot's payload (it is never observable through the API).
template <class K, class V, class Hash = FlatHash>
class FlatMap {
  struct Slot {
    K first{};
    V second{};
  };
  struct KeyOf {
    const K& operator()(const Slot& s) const { return s.first; }
    void set(Slot& s, const K& k) const { s.first = k; }
  };
  using Table = detail::FlatTable<K, Slot, KeyOf, Hash>;

 public:
  using value_type = Slot;
  using iterator = typename Table::iterator;
  using const_iterator = typename Table::const_iterator;

  iterator begin() { return t_.begin(); }
  iterator end() { return t_.end(); }
  const_iterator begin() const { return t_.begin(); }
  const_iterator end() const { return t_.end(); }

  std::size_t size() const { return t_.size(); }
  bool empty() const { return t_.empty(); }
  void clear() { t_.clear(); }
  void reserve(std::size_t n) { t_.reserve(n); }

  iterator find(const K& k) {
    const std::size_t i = t_.find_index(k);
    return i == Table::npos ? end() : iterator(&t_, i);
  }
  const_iterator find(const K& k) const {
    const std::size_t i = t_.find_index(k);
    return i == Table::npos ? end() : const_iterator(&t_, i);
  }
  std::size_t count(const K& k) const {
    return t_.find_index(k) == Table::npos ? 0 : 1;
  }
  bool contains(const K& k) const { return count(k) != 0; }

  /// Default-constructs the mapped value on first access, like std::map.
  V& operator[](const K& k) { return iterator(&t_, t_.insert_key(k).first)->second; }

  std::pair<iterator, bool> try_emplace(const K& k, V v = V{}) {
    const auto [i, inserted] = t_.insert_key(k);
    iterator it(&t_, i);
    if (inserted) it->second = std::move(v);
    return {it, inserted};
  }
  /// Insert-if-absent, like std::unordered_map::emplace with a (k, v) pair.
  std::pair<iterator, bool> emplace(const K& k, V v) {
    return try_emplace(k, std::move(v));
  }

  std::size_t erase(const K& k) { return t_.erase_key(k); }
  void erase(iterator it) { t_.erase_index(it.pos()); }

 private:
  Table t_;
};

/// Open-addressing hash set.
template <class K, class Hash = FlatHash>
class FlatSet {
  struct Slot {
    K key{};
  };
  struct KeyOf {
    const K& operator()(const Slot& s) const { return s.key; }
    void set(Slot& s, const K& k) const { s.key = k; }
  };
  using Table = detail::FlatTable<K, Slot, KeyOf, Hash>;

 public:
  /// Iterates keys (not slots), so range-for yields K like std::set.
  class const_iterator {
   public:
    using value_type = K;
    using reference = const K&;
    using pointer = const K*;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    explicit const_iterator(typename Table::const_iterator it) : it_(it) {}
    const K& operator*() const { return it_->key; }
    const K* operator->() const { return &it_->key; }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const const_iterator& o) const { return it_ == o.it_; }
    bool operator!=(const const_iterator& o) const { return it_ != o.it_; }

   private:
    typename Table::const_iterator it_;
  };
  using iterator = const_iterator;

  const_iterator begin() const { return const_iterator(t_.begin()); }
  const_iterator end() const { return const_iterator(t_.end()); }

  std::size_t size() const { return t_.size(); }
  bool empty() const { return t_.empty(); }
  void clear() { t_.clear(); }
  void reserve(std::size_t n) { t_.reserve(n); }

  bool insert(const K& k) { return t_.insert_key(k).second; }
  std::size_t erase(const K& k) { return t_.erase_key(k); }
  std::size_t count(const K& k) const {
    return t_.find_index(k) == Table::npos ? 0 : 1;
  }
  bool contains(const K& k) const { return count(k) != 0; }

 private:
  Table t_;
};

/// Small-buffer-optimized line-address set tuned for transaction footprints
/// (paper Table IV: most read/write sets are tens of lines). Elements live
/// in an insertion-ordered vector; membership is a linear scan while the
/// set is small (cheaper than any hashing at these sizes, and the scan
/// touches one or two cache lines), switching to a FlatSet index once it
/// outgrows the scan threshold. Iteration is always insertion-ordered,
/// which makes every result that depends on walking a footprint
/// reproducible by construction. A set only grows between clear()s, as a
/// transaction attempt's footprint does.
class LineSet {
 public:
  using const_iterator = std::vector<LineAddr>::const_iterator;

  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  bool contains(LineAddr l) const {
    if (!indexed_) {
      for (LineAddr x : items_) {
        if (x == l) return true;
      }
      return false;
    }
    return index_.contains(l);
  }
  std::size_t count(LineAddr l) const { return contains(l) ? 1 : 0; }

  /// Returns true if `l` was newly inserted.
  bool insert(LineAddr l) {
    if (contains(l)) return false;
    items_.push_back(l);
    if (indexed_) {
      index_.insert(l);
    } else if (items_.size() > kScanMax) {
      index_.reserve(2 * kScanMax);
      for (LineAddr x : items_) index_.insert(x);
      indexed_ = true;
    }
    return true;
  }

  /// Keeps both the vector's and the index's allocations.
  void clear() {
    items_.clear();
    if (indexed_) {
      index_.clear();
      indexed_ = false;
    }
  }

 private:
  static constexpr std::size_t kScanMax = 16;

  std::vector<LineAddr> items_;
  FlatSet<LineAddr> index_;
  bool indexed_ = false;
};

}  // namespace suvtm
