#include "mem/cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace suvtm::mem {

const char* coh_state_name(CohState s) {
  switch (s) {
    case CohState::kInvalid: return "I";
    case CohState::kShared: return "S";
    case CohState::kExclusive: return "E";
    case CohState::kModified: return "M";
    default: return "?";
  }
}

Cache::Cache(std::uint32_t total_bytes, std::uint32_t assoc)
    : num_sets_(total_bytes / kLineBytes / assoc), assoc_(assoc) {
  assert(num_sets_ > 0 && std::has_single_bit(num_sets_) &&
         "cache sets must be a power of two");
  // Throws std::bad_alloc on failure in every build.
  lines_ = std::make_unique_for_overwrite<Line[]>(std::size_t{num_sets_} *
                                                   assoc_);
  written_.assign((std::size_t{num_sets_} + 63) / 64, 0);
}

Cache::Victim Cache::insert(LineAddr l, CohState st) {
  if (Line* existing = find(l)) {
    existing->state = st;
    touch(*existing);
    return {};
  }
  const std::uint32_t s = set_index(l);
  Line* set = set_at(s);
  if (!written(s)) {
    // First fill: the set's memory is uninitialized until now.
    written_[s >> 6] |= std::uint64_t{1} << (s & 63u);
    std::fill_n(set, assoc_, Line{});
  }
  // Choose the victim: first invalid way, else the LRU way, preferring
  // non-speculative lines.
  Line* victim = nullptr;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    Line& ln = set[w];
    if (ln.state == CohState::kInvalid) {
      victim = &ln;
      break;
    }
    if (ln.speculative) continue;
    if (!victim || ln.lru < victim->lru) victim = &ln;
  }
  if (!victim) {
    // Every way is speculative: FasTM overflow case -- evict LRU anyway and
    // report it so the version manager can degenerate.
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      Line& ln = set[w];
      if (!victim || ln.lru < victim->lru) victim = &ln;
    }
  }
  Victim out;
  if (victim->state != CohState::kInvalid) {
    out = {true, victim->tag, victim->state, victim->speculative};
  }
  *victim = Line{l, ++tick_, st, false};
  return out;
}

void Cache::invalidate(LineAddr l) {
  if (Line* ln = find(l)) {
    ln->state = CohState::kInvalid;
    ln->speculative = false;
  }
}

std::uint32_t Cache::set_occupancy(LineAddr l) const {
  const std::uint32_t s = set_index(l);
  if (!written(s)) return 0;
  const Line* set = set_at(s);
  std::uint32_t n = 0;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (set[w].state != CohState::kInvalid) ++n;
  }
  return n;
}

}  // namespace suvtm::mem
