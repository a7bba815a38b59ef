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

class Signature {
 public:
  Signature(std::uint32_t bits, std::uint32_t hashes);

  // add/test/test_mixed are defined inline: they run hundreds of millions
  // of times per experiment sweep and an out-of-line call costs more than
  // the probe itself.
  void add(LineAddr l) {
    const std::uint64_t m = mix(l);
    std::uint32_t b = static_cast<std::uint32_t>(m);
    const std::uint32_t step = static_cast<std::uint32_t>(m >> 32) | 1u;
    for (std::uint32_t i = 0; i < k_; ++i, b += step) {
      const std::uint32_t idx = b & (bits_ - 1);
      words_[idx >> 6] |= 1ull << (idx & 63);
    }
    ++adds_;
  }
  bool test(LineAddr l) const { return test_mixed(mix(l)); }
  /// test() with the line's mix precomputed. The conflict check probes many
  /// signatures with the same line; computing the mix once there pays the
  /// multiply-avalanche per access instead of per signature.
  bool test_mixed(std::uint64_t m) const {
    if (adds_ == 0) return false;
    std::uint32_t b = static_cast<std::uint32_t>(m);
    const std::uint32_t step = static_cast<std::uint32_t>(m >> 32) | 1u;
    for (std::uint32_t i = 0; i < k_; ++i, b += step) {
      const std::uint32_t idx = b & (bits_ - 1);
      if (!((words_[idx >> 6] >> (idx & 63)) & 1ull)) return false;
    }
    return true;
  }
  void clear();

  bool empty() const { return adds_ == 0; }
  std::uint64_t adds() const { return adds_; }
  /// Raw filter words (bits()/64 of them); used to rebuild the conflict
  /// manager's bit-sliced columns after a wholesale signature restore.
  const std::vector<std::uint64_t>& words() const { return words_; }
  std::uint32_t bits() const { return bits_; }
  /// Number of set bits (occupancy; used in tests and saturation stats).
  std::uint32_t popcount() const;

  /// Hash `i` of line `l` into [0, bits). Derived from one mix via double
  /// hashing, so add/test pay a single 64-bit multiply-mix regardless of k;
  /// the per-i form exists for tests and the summary signature's bit math.
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
