// Generic set-associative tag array with true-LRU replacement.
//
// Tag-only: data lives in the BackingStore. Used for the per-core L1s and
// the shared banked L2. The tag array is never zeroed as a whole: a set is
// zeroed on its first fill, and a per-set "written" bitmap makes every
// unwritten set read as empty, so a run's construction cost does not grow
// with the size of the machine's caches.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace suvtm::mem {

/// Per-line coherence state as seen by the local cache (MESI).
enum class CohState : std::uint8_t { kInvalid, kShared, kExclusive, kModified };

const char* coh_state_name(CohState s);

class Cache {
 public:
  /// Trivially default-constructible on purpose: the tag array is allocated
  /// without initialization, and a set's first fill value-initializes its
  /// ways, all-zero being the invalid state (kInvalid == 0).
  /// Aggregate-initialize when building a real line.
  struct Line {
    LineAddr tag;            // full line address (simpler than tag bits)
    std::uint64_t lru;
    CohState state;          // kInvalid (== 0) when the way is empty
    bool speculative;        // FasTM SM bit
  };
  static_assert(static_cast<int>(CohState::kInvalid) == 0,
                "value-initialized lines must read as invalid");
  static_assert(sizeof(Line) == 24,
                "a 4-way set of 24-byte lines spans at most two cache lines");

  struct Victim {
    bool valid = false;      // an eviction happened
    LineAddr line = 0;
    CohState state = CohState::kInvalid;
    bool speculative = false;
  };

  Cache(std::uint32_t total_bytes, std::uint32_t assoc);

  std::uint32_t num_sets() const { return num_sets_; }
  std::uint32_t assoc() const { return assoc_; }
  std::uint32_t set_index(LineAddr l) const {
    return static_cast<std::uint32_t>(l & (num_sets_ - 1));
  }

  /// Returns the line's entry if present (any valid state), else nullptr.
  /// Inline: this is the single most-called function in the memory system.
  Line* find(LineAddr l) {
    return const_cast<Line*>(std::as_const(*this).find(l));
  }
  const Line* find(LineAddr l) const {
    const std::uint32_t s = set_index(l);
    if (!written(s)) return nullptr;
    const Line* set = set_at(s);
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      const Line& ln = set[w];
      if (ln.tag == l && ln.state != CohState::kInvalid) return &ln;
    }
    return nullptr;
  }

  /// Touch for LRU (call on every hit).
  void touch(Line& ln) { ln.lru = ++tick_; }

  /// Insert `l` with `st`, evicting the LRU way if the set is full.
  /// Lines with `speculative` set are never chosen as victims while a
  /// non-speculative victim exists (FasTM tries to keep SM lines resident).
  Victim insert(LineAddr l, CohState st);

  /// Remove the line if present (invalidation).
  void invalidate(LineAddr l);

  /// Invoke `fn` for every valid line (e.g. flash-clear of SM bits), in
  /// set-major order. Templated (not std::function) so the L1 walks inline
  /// the callback instead of an indirect call.
  template <class Fn>
  void for_each(Fn&& fn) {
    walk(*this, fn);
  }
  template <class Fn>
  void for_each(Fn&& fn) const {
    walk(*this, fn);
  }

  /// Number of valid lines currently in `l`'s set.
  std::uint32_t set_occupancy(LineAddr l) const;

 private:
  // All sets in one contiguous array, stride = assoc_: set s occupies
  // [s*assoc_, (s+1)*assoc_). One allocation, no per-set vector headers,
  // and a whole 4-way set of 24-byte lines spans at most two cache lines.
  Line* set_at(std::uint32_t s) {
    return lines_.get() + std::size_t{s} * assoc_;
  }
  const Line* set_at(std::uint32_t s) const {
    return lines_.get() + std::size_t{s} * assoc_;
  }

  /// Whether set `s` has been filled since construction. An unwritten
  /// set's lines are uninitialized memory and read as empty.
  bool written(std::uint32_t s) const {
    return (written_[s >> 6] >> (s & 63u)) & 1u;
  }

  /// The set-major walk behind both for_each overloads: written sets only.
  template <class Self, class Fn>
  static void walk(Self& self, Fn& fn) {
    for (std::uint32_t w = 0; w < self.written_.size(); ++w) {
      for (std::uint64_t bits = self.written_[w]; bits != 0; bits &= bits - 1) {
        auto* set = self.set_at(
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)));
        for (std::uint32_t i = 0; i < self.assoc_; ++i) {
          if (set[i].state != CohState::kInvalid) fn(set[i]);
        }
      }
    }
  }

  std::uint32_t num_sets_;
  std::uint32_t assoc_;
  std::uint64_t tick_ = 0;
  // Allocated uninitialized: a run touches a fraction of the multi-megabyte
  // L2 tag array, and insert() zeroes each set on its first fill, so
  // construction costs the 2 KB bitmap below instead of a 3 MB memset.
  std::unique_ptr<Line[]> lines_;
  std::vector<std::uint64_t> written_;  // bit per set: filled at least once
};

}  // namespace suvtm::mem
