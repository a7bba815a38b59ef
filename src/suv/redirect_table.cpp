#include "suv/redirect_table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/recorder.hpp"

namespace suvtm::suv {

RedirectTable::RedirectTable(const sim::SuvParams& p, std::uint32_t num_cores,
                             CoreRange local)
    : params_(p), local_(local), observers_(num_cores - local.count) {
  assert(num_cores <= 64 && "holder masks are 64-bit");
  assert(local.count <= num_cores && local.first <= num_cores - local.count);
  l1_.resize(num_cores);
  const std::uint32_t sets =
      std::max<std::uint32_t>(1, p.l2_table_entries / p.l2_table_assoc);
  l2_sets_.resize(sets);
  const std::uint32_t summaries = local.count + (observers_ > 0 ? 1 : 0);
  summary_.reserve(summaries);
  for (std::uint32_t i = 0; i < summaries; ++i) {
    summary_.emplace_back(p.summary_signature_bits, p.summary_signature_hashes);
  }
}

RedirectEntry* RedirectTable::find(LineAddr original) {
  Slot* s = slot(original);
  return s ? &s->entry : nullptr;
}

const RedirectEntry* RedirectTable::find(LineAddr original) const {
  auto it = entries_.find(original);
  return it == entries_.end() ? nullptr : &it->second.entry;
}

bool RedirectTable::l2_contains(LineAddr l) const {
  const L2Set& s = l2_set(l);
  return std::any_of(s.ways.begin(), s.ways.end(),
                     [l](const auto& w) { return w.first == l; });
}

void RedirectTable::l2_erase(LineAddr l) {
  L2Set& s = l2_set(l);
  std::erase_if(s.ways, [l](const auto& w) { return w.first == l; });
}

void RedirectTable::l2_install(LineAddr l) {
  L2Set& s = l2_set(l);
  for (auto& w : s.ways) {
    if (w.first == l) {
      w.second = ++tick_;
      return;
    }
  }
  if (s.ways.size() >= params_.l2_table_assoc) {
    // Swap the LRU entry out to the memory table (it remains in entries_).
    auto lru = std::min_element(
        s.ways.begin(), s.ways.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    ++stats_.l2_evictions;
    SUVTM_OBS_HOOK(obs_, on_table_spill(lru->first, entry_owner(lru->first)));
    s.ways.erase(lru);
  }
  s.ways.emplace_back(l, ++tick_);
}

void RedirectTable::l1_install(CoreId core, Slot& s) {
  const LineAddr l = s.entry.original;
  L1Table& t = l1_[core];
  if (t.pinned.count(l)) return;
  auto it = t.cached.find(l);
  if (it != t.cached.end()) {
    it->second = ++tick_;
    return;
  }
  if (t.pinned.size() + t.cached.size() >= params_.l1_table_entries &&
      !t.cached.empty()) {
    // Evict the LRU non-pinned entry down to the shared second level.
    auto lru = std::min_element(
        t.cached.begin(), t.cached.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    Slot* evicted = slot(lru->first);
    assert(evicted && "first-level table caches only live entries");
    evicted->holders &= ~bit(core);
    l2_install(lru->first);
    t.cached.erase(lru);
  }
  if (t.pinned.size() + t.cached.size() < params_.l1_table_entries) {
    t.cached.emplace(l, ++tick_);
    s.holders |= bit(core);
  }
}

void RedirectTable::drop_from_caches(LineAddr l, std::uint64_t holders) {
  for (std::uint64_t m = holders; m != 0; m &= m - 1) {
    L1Table& t = l1_[static_cast<CoreId>(std::countr_zero(m))];
    t.cached.erase(l);
    t.pinned.erase(l);
  }
  l2_erase(l);
}

RedirectTable::Lookup RedirectTable::lookup(CoreId core, LineAddr original) {
  ++stats_.lookups;
  if (!summary(core).test(original)) {
    ++stats_.summary_filtered;
    return {};  // definitely not redirected, zero cost
  }

  Lookup out;
  L1Table& t = l1_[core];
  if (t.pinned.count(original) || t.cached.count(original)) {
    ++stats_.l1_hits;
    auto it = t.cached.find(original);
    if (it != t.cached.end()) it->second = ++tick_;
    out.probe = params_.l1_table_latency;
    out.entry = find(original);
    assert(out.entry && "first-level table caches only live entries");
    return out;
  }
  ++stats_.l1_misses;

  if (l2_contains(original)) {
    ++stats_.l2_hits;
    out.probe = params_.l2_table_latency;
    Slot* s = slot(original);
    assert(s && "second-level table caches only live entries");
    l1_install(core, *s);
    out.entry = &s->entry;
    return out;
  }

  // Both hardware levels missed. The core speculates with the original
  // address while the software memory-table search proceeds in the
  // background (paper Section IV-A), so a summary false positive costs
  // nothing on the critical path; only a real swapped-out entry forces a
  // squash and a redone access.
  if (Slot* s = slot(original)) {
    ++stats_.mem_hits;
    ++stats_.misspeculations;
    out.squash = params_.misspeculation_penalty;
    l1_install(core, *s);
    out.entry = &s->entry;
  } else {
    ++stats_.false_filter_hits;
  }
  return out;
}

Cycle RedirectTable::insert_transient(const RedirectEntry& e) {
  assert(e.transient());
  assert(local_.contains(e.owner) && "only local cores own entries");
  auto [it, fresh] = entries_.emplace(e.original, Slot{e, 0});
  assert(fresh);
  Slot& s = it->second;
  summary_[summary_index(e.owner)].add(e.original);
  SUVTM_OBS_HOOK(obs_, on_summary_add());

  // A fresh entry: no first-level table holds its line yet.
  L1Table& t = l1_[e.owner];
  assert(!t.cached.contains(e.original));
  if (t.pinned.size() < params_.l1_table_entries) {
    t.pinned.insert(e.original);
    s.holders = bit(e.owner);
    return params_.l1_table_latency;
  }
  // First-level overflow: the transient entry lives in the shared table.
  ++stats_.l1_overflow_entries;
  SUVTM_OBS_HOOK(obs_, on_table_l1_overflow());
  l2_install(e.original);
  return params_.l2_table_latency;
}

Cycle RedirectTable::pin_transient(CoreId owner, LineAddr original) {
  assert(local_.contains(owner) && "only local cores own entries");
  Slot* s = slot(original);
  assert(s);
  L1Table& t = l1_[owner];
  t.cached.erase(original);
  if (t.pinned.size() < params_.l1_table_entries) {
    t.pinned.insert(original);
    s->holders |= bit(owner);
    return params_.l1_table_latency;
  }
  s->holders &= ~bit(owner);
  ++stats_.l1_overflow_entries;
  SUVTM_OBS_HOOK(obs_, on_table_l1_overflow());
  l2_install(original);
  return params_.l2_table_latency;
}

RedirectTable::FlipOutcome RedirectTable::commit_entry(LineAddr original) {
  Slot* s = slot(original);
  assert(s && s->entry.transient());
  RedirectEntry* e = &s->entry;
  FlipOutcome out{false, e->target};
  const CoreId owner = e->owner;
  assert(local_.contains(owner));
  const std::uint64_t m = htm::Signature::mix(original);
  e->state = commit_flip(e->state);
  if (e->state == EntryState::kGlobalRedirect) {
    // Publish: visible to every core's summary filter from now on, and
    // written to the shared second-level table so other cores' first-level
    // tables can fill from it instead of faulting to the memory table.
    const std::size_t own = summary_index(owner);
    for (std::size_t i = 0; i < local_.count; ++i) {
      if (i != own) {
        summary_[i].add_mixed(m);
        SUVTM_OBS_HOOK(obs_, on_summary_add());
      }
    }
    if (observers_ > 0) {
      summary_.back().add_mixed(m);
      SUVTM_OBS_HOOK(obs_, on_summary_add(observers_));
    }
    e->owner = kNoCore;
    L1Table& t = l1_[owner];
    if (t.pinned.erase(original)) t.cached.emplace(original, ++tick_);
    l2_install(original);
  } else {
    // g1v0 -> g0v0: the redirection collapsed back to the original address.
    assert(e->state == EntryState::kInvalid);
    out.deleted = true;
    for (std::size_t i = 0; i < local_.count; ++i) {
      [[maybe_unused]] const bool stale = summary_[i].remove_mixed(m);
      SUVTM_OBS_HOOK(obs_, on_summary_remove(stale));
    }
    if (observers_ > 0) {
      [[maybe_unused]] const bool stale = summary_.back().remove_mixed(m);
      SUVTM_OBS_HOOK(obs_, on_summary_remove(stale, observers_));
    }
    drop_from_caches(original, s->holders);
    entries_.erase(original);
  }
  return out;
}

RedirectTable::FlipOutcome RedirectTable::abort_entry(LineAddr original) {
  Slot* s = slot(original);
  assert(s && s->entry.transient());
  RedirectEntry* e = &s->entry;
  FlipOutcome out{false, e->target};
  const CoreId owner = e->owner;
  e->state = abort_flip(e->state);
  if (e->state == EntryState::kInvalid) {
    out.deleted = true;
    [[maybe_unused]] const bool stale =
        summary_[summary_index(owner)].remove(original);
    SUVTM_OBS_HOOK(obs_, on_summary_remove(stale));
    drop_from_caches(original, s->holders);
    entries_.erase(original);
  } else {
    // g1v0 -> g1v1: the pre-existing global redirection is restored.
    assert(e->state == EntryState::kGlobalRedirect);
    e->owner = kNoCore;
    L1Table& t = l1_[owner];
    if (t.pinned.erase(original)) t.cached.emplace(original, ++tick_);
  }
  return out;
}

}  // namespace suvtm::suv
