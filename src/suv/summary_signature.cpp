#include "suv/summary_signature.hpp"

#include <cassert>

namespace suvtm::suv {

SummarySignature::SummarySignature(std::uint32_t bits, std::uint32_t hashes)
    : bits_(bits), k_(hashes), counts_(bits, 0) {
  assert(hashes >= 1 && hashes <= 8);
}

// All three operations walk the line's k counter indices with
// htm::for_each_position, the read/write signatures' walk, so the
// structure tests that predict bits via Signature::hash stay valid.

void SummarySignature::add_mixed(std::uint64_t m) {
  htm::for_each_position(m, k_, bits_, [&](std::uint32_t idx) {
    std::uint8_t& c = counts_[idx];
    if (c != 0xff) ++c;
    return true;
  });
  ++members_;
}

bool SummarySignature::remove_mixed(std::uint64_t m) {
  // Paper Figure 5: clear only the bits this address wrote *uniquely*;
  // shared (count > 1) bits are decremented but remain set, saturated
  // counters are left alone (the filter may only ever shrink toward the
  // truth, never under-approximate it).
  bool still_set = true;
  htm::for_each_position(m, k_, bits_, [&](std::uint32_t idx) {
    std::uint8_t& c = counts_[idx];
    if (c != 0 && c != 0xff) --c;
    if (c == 0) still_set = false;
    return true;
  });
  if (members_ > 0) --members_;
  return still_set;
}

bool SummarySignature::test(LineAddr l) const {
  return htm::for_each_position(
      htm::Signature::mix(l), k_, bits_,
      [&](std::uint32_t idx) { return counts_[idx] != 0; });
}

void SummarySignature::clear() {
  members_ = 0;
  for (auto& c : counts_) c = 0;
}

}  // namespace suvtm::suv
