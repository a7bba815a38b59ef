#include "htm/signature.hpp"

#include <bit>
#include <cassert>

#include "common/flat_hash.hpp"

namespace suvtm::htm {

Signature::Signature(std::uint32_t bits, std::uint32_t hashes)
    : bits_(bits), k_(hashes), words_((bits + 63) / 64, 0) {
  assert(bits > 0 && std::has_single_bit(bits));
  assert(hashes >= 1 && hashes <= 8);
}

std::uint32_t Signature::hash(LineAddr l, std::uint32_t i, std::uint32_t bits) {
  std::uint32_t idx = 0;
  for_each_position(mix(l), i + 1, bits, [&](std::uint32_t p) {
    idx = p;
    return true;
  });
  return idx;
}

void Signature::clear() {
  adds_ = 0;
  for (auto& w : words_) w = 0;
}

std::uint32_t Signature::popcount() const {
  std::uint32_t n = 0;
  for (auto w : words_) n += static_cast<std::uint32_t>(std::popcount(w));
  return n;
}

bool Signature::intersects(const Signature& o) const {
  assert(bits_ == o.bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] & o.words_[i]) return true;
  }
  return false;
}

}  // namespace suvtm::htm
