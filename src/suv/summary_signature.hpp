// Redirect summary signature (paper Section IV-B, Figure 5).
//
// A Bloom filter over the set of redirected line addresses, used to skip the
// redirect-table lookup for the common un-redirected access. Unlike the
// read/write signatures it must support *removal* (entries are deleted when
// a line is redirected back to its original address), so a second bit-vector
// records which filter bits have been written exactly once; removal clears
// only those unique bits. This works like a truncated Bloom counter: the
// filter stays a superset of the true set (correctness), at the price of
// stale bits that cause wasteful lookups (performance only).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "htm/signature.hpp"

namespace suvtm::suv {

class SummarySignature {
 public:
  SummarySignature(std::uint32_t bits, std::uint32_t hashes);

  void add(LineAddr l) { add_mixed(htm::Signature::mix(l)); }
  /// Returns true when the filter still tests positive for `l` afterwards
  /// (every one of its bits was shared or saturated -- a "stale" removal
  /// that keeps causing wasteful lookups).
  bool remove(LineAddr l) { return remove_mixed(htm::Signature::mix(l)); }

  /// add/remove with the line's Signature::mix precomputed: a flip updates
  /// many summaries with one line.
  void add_mixed(std::uint64_t m);
  bool remove_mixed(std::uint64_t m);

  /// True if `l` may be redirected (false positives possible, no false
  /// negatives for present lines).
  bool test(LineAddr l) const;

  /// The "written exactly once" bit (paper Figure 5's second vector),
  /// exposed for structure tests.
  bool unique_bit(std::uint32_t bit) const { return counts_[bit] == 1; }
  bool filter_bit(std::uint32_t bit) const { return counts_[bit] != 0; }

  std::uint32_t bits() const { return bits_; }
  std::uint64_t size_estimate() const { return members_; }
  void clear();

 private:
  std::uint32_t bits_;
  std::uint32_t k_;
  std::uint64_t members_ = 0;
  // Conceptually: filter bit == (count != 0); unique vector == (count == 1).
  // An 8-bit saturating counter per filter bit backs both.
  std::vector<std::uint8_t> counts_;
};

}  // namespace suvtm::suv
