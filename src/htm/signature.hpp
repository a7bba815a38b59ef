// Bloom-filter read/write signatures (paper Table III: 2-Kbit filters).
//
// Signatures are compact encodings of a transaction's read- and write-sets.
// They admit false positives -- reported as "false conflicts" in the paper --
// which we reproduce by using real hashed filters rather than exact sets.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/types.hpp"

namespace suvtm::htm {

/// Visit the `k` filter positions of the line whose Signature::mix is `m`
/// in a `bits`-wide filter (`bits` a power of two), calling fn(index) for
/// each. Double hashing (Kirsch-Mitzenmacher): index_i = h1 + i*h2 mod
/// bits, with both halves taken from the one mix and the step forced odd,
/// so the k indices are pairwise distinct and a filter genuinely sets k
/// bits per line. Every structure indexed by a line's filter positions
/// walks them here: the read/write signatures, the redirect summary
/// signature and the conflict manager's bit-sliced columns. Stops at the
/// first position where fn returns false, and returns false then; true
/// when all k positions were visited.
template <class Fn>
inline bool for_each_position(std::uint64_t m, std::uint32_t k,
                              std::uint32_t bits, Fn&& fn) {
  std::uint32_t b = static_cast<std::uint32_t>(m);
  const std::uint32_t step = static_cast<std::uint32_t>(m >> 32) | 1u;
  for (std::uint32_t i = 0; i < k; ++i, b += step) {
    if (!fn(b & (bits - 1))) return false;
  }
  return true;
}

class Signature {
 public:
  Signature(std::uint32_t bits, std::uint32_t hashes);

  // add/test/test_mixed are defined inline: they run hundreds of millions
  // of times per experiment sweep and an out-of-line call costs more than
  // the probe itself.
  void add(LineAddr l) {
    for_each_position(mix(l), k_, bits_, [&](std::uint32_t idx) {
      words_[idx >> 6] |= 1ull << (idx & 63);
      return true;
    });
    ++adds_;
  }
  bool test(LineAddr l) const { return test_mixed(mix(l)); }
  /// test() with the line's mix precomputed. The conflict check probes many
  /// signatures with the same line; computing the mix once there pays the
  /// multiply-avalanche per access instead of per signature.
  bool test_mixed(std::uint64_t m) const {
    if (adds_ == 0) return false;
    return for_each_position(m, k_, bits_, [&](std::uint32_t idx) {
      return ((words_[idx >> 6] >> (idx & 63)) & 1ull) != 0;
    });
  }
  void clear();

  bool empty() const { return adds_ == 0; }
  std::uint64_t adds() const { return adds_; }
  std::uint32_t bits() const { return bits_; }
  /// Number of set bits (occupancy; used in tests and saturation stats).
  std::uint32_t popcount() const;

  /// Filter position `i` of line `l` in a `bits`-wide filter: the i-th
  /// index for_each_position visits. Tests predict filter bits with it.
  static std::uint32_t hash(LineAddr l, std::uint32_t i, std::uint32_t bits);

  /// The shared 64-bit mix all indices derive from.
  static std::uint64_t mix(LineAddr l) {
    // One full-avalanche mix; all k filter indices derive from it.
    return hash_mix64(l * 0x9e3779b97f4a7c15ull);
  }

  /// True if any line could be in both signatures (bitwise AND non-empty is
  /// NOT the membership test -- this is only used for diagnostics).
  bool intersects(const Signature& o) const;

 private:
  std::uint32_t bits_;
  std::uint32_t k_;
  std::uint64_t adds_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace suvtm::htm
