#include "suv/summary_signature.hpp"

#include <cassert>

namespace suvtm::suv {

SummarySignature::SummarySignature(std::uint32_t bits, std::uint32_t hashes)
    : bits_(bits), k_(hashes), counts_(bits, 0) {
  assert(hashes >= 1 && hashes <= 8);
}

// All three operations derive their k counter indices from one mix, exactly
// as Signature::hash(l, i, bits_) would (double hashing with an odd step),
// so the structure tests that predict bits via Signature::hash stay valid.

void SummarySignature::add_mixed(std::uint64_t m) {
  std::uint32_t b = static_cast<std::uint32_t>(m);
  const std::uint32_t step = static_cast<std::uint32_t>(m >> 32) | 1u;
  for (std::uint32_t i = 0; i < k_; ++i, b += step) {
    std::uint8_t& c = counts_[b & (bits_ - 1)];
    if (c != 0xff) ++c;
  }
  ++members_;
}

bool SummarySignature::remove_mixed(std::uint64_t m) {
  // Paper Figure 5: clear only the bits this address wrote *uniquely*;
  // shared (count > 1) bits are decremented but remain set, saturated
  // counters are left alone (the filter may only ever shrink toward the
  // truth, never under-approximate it).
  std::uint32_t b = static_cast<std::uint32_t>(m);
  const std::uint32_t step = static_cast<std::uint32_t>(m >> 32) | 1u;
  bool still_set = true;
  for (std::uint32_t i = 0; i < k_; ++i, b += step) {
    std::uint8_t& c = counts_[b & (bits_ - 1)];
    if (c != 0 && c != 0xff) --c;
    if (c == 0) still_set = false;
  }
  if (members_ > 0) --members_;
  return still_set;
}

bool SummarySignature::test(LineAddr l) const {
  const std::uint64_t m = htm::Signature::mix(l);
  std::uint32_t b = static_cast<std::uint32_t>(m);
  const std::uint32_t step = static_cast<std::uint32_t>(m >> 32) | 1u;
  for (std::uint32_t i = 0; i < k_; ++i, b += step) {
    if (counts_[b & (bits_ - 1)] == 0) return false;
  }
  return true;
}

void SummarySignature::clear() {
  members_ = 0;
  for (auto& c : counts_) c = 0;
}

}  // namespace suvtm::suv
