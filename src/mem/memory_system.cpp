#include "mem/memory_system.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/recorder.hpp"

namespace {

/// Bitmask of cores holding a line per the directory entry: S sharers plus
/// the M/E owner, if any.
std::uint32_t holder_mask(const suvtm::mem::DirEntry& e) {
  std::uint32_t m = e.sharers;
  if (e.owner != suvtm::kNoCore) m |= 1u << e.owner;
  return m;
}

}  // namespace

namespace suvtm::mem {

MemorySystem::MemorySystem(const sim::MemParams& p)
    : params_(p),
      mesh_(p.mesh_dim),
      l2_(p.l2_bytes, p.l2_assoc) {
  l1_.reserve(p.num_cores);
  tlb_.reserve(p.num_cores);
  for (std::uint32_t c = 0; c < p.num_cores; ++c) {
    l1_.emplace_back(p.l1_bytes, p.l1_assoc);
    tlb_.emplace_back(kTlbEntries);
  }
  spec_lines_.resize(p.num_cores);
}

bool MemorySystem::l2_insert_with_recall(LineAddr l, CohState st) {
  const Cache::Victim v = l2_.insert(l, st);
  if (!v.valid) return false;
  SUVTM_OBS_HOOK(obs_, on_cache_evict(/*l2=*/true, v.line));
  const DirEntry* de = dir_.find(v.line);
  if (!de || (de->sharers == 0 && de->owner == kNoCore)) return false;
  ++stats_.l2_recalls;
  for (std::uint32_t m = holder_mask(*de); m != 0; m &= m - 1) {
    l1_[std::countr_zero(m)].invalidate(v.line);
  }
  dir_.entry(v.line) = DirEntry{};
  return true;
}

Cycle MemorySystem::fetch_from_l2_or_memory(LineAddr l) {
  if (Cache::Line* hit = l2_.find(l)) {
    ++stats_.l2_hits;
    l2_.touch(*hit);
    return kL2Latency;
  }
  ++stats_.l2_misses;
  // Fill the L2; an L2 eviction recalls any L1 copies of the victim.
  Cycle extra = 0;
  if (l2_insert_with_recall(l, CohState::kExclusive)) {
    extra += kDirectoryLatency + mesh_.average_latency();
  }
  return kL2Latency + kMemoryLatency + extra;
}

void MemorySystem::l1_eviction(CoreId core, const Cache::Victim& v) {
  if (!v.valid) return;
  SUVTM_OBS_HOOK(obs_, on_cache_evict(/*l2=*/false, v.line));
  if (v.speculative) {
    ++stats_.spec_evictions;
  }
  if (v.state == CohState::kModified) {
    ++stats_.writebacks;
    // Recall-aware insert: the writeback's L2 fill can itself evict a line
    // other cores still hold. The recall's latency is off the requester's
    // critical path (background writeback), so no cycles are charged here.
    l2_insert_with_recall(v.line, CohState::kModified);
  }
  const bool dropped = dir_.remove_core(v.line, core);
  if (dropped) SUVTM_OBS_HOOK(obs_, on_dir_drop());
}

AccessOutcome MemorySystem::access(CoreId core, Addr a, bool is_write) {
  assert(core < params_.num_cores);
  const LineAddr l = line_of(a);
  AccessOutcome out;

  // TLB lookup runs in parallel with the L1 tag check; only a miss adds
  // time. Redirect-pool addresses carry their physical page pointer in the
  // redirect entry (paper Figure 3), so they bypass the TLB entirely.
  if (a < kRedirectPoolBase) out.latency += tlb_[core].access(a).latency;

  Cache& l1 = l1_[core];
  Cache::Line* ln = l1.find(l);

  // L1 hit with sufficient permission.
  if (ln) {
    const bool ok = is_write
                        ? (ln->state == CohState::kModified ||
                           ln->state == CohState::kExclusive)
                        : true;
    if (ok) {
      if (is_write && ln->state == CohState::kExclusive) {
        ln->state = CohState::kModified;  // silent E->M upgrade
        DirEntry& e = dir_.entry(l);
        e.owner = core;
        e.sharers = 1u << core;
      }
      l1.touch(*ln);
      ++stats_.l1_hits;
      out.l1_hit = true;
      out.latency += kL1Latency;
      return out;
    }
  }

  // Miss (or S->M upgrade): request travels to the line's home L2 bank.
  ++stats_.l1_misses;
  const std::uint32_t bank = mesh_.bank_tile(l);
  out.latency += kL1Latency;  // detect the miss
  out.latency += mesh_.latency(core, bank) + kDirectoryLatency;

  // Held by pointer, not reference: the directory is an open-addressing
  // map, so any entry() / remove_core on *another* line (the L2-fill path
  // below can zero a recalled victim's entry) may rehash or backshift and
  // move this slot. Re-resolve after every call that can mutate dir_.
  DirEntry* e = &dir_.entry(l);

  if (!is_write) {
    // GETS.
    if (e->owner != kNoCore && e->owner != core) {
      // Forward from the owner; owner downgrades M/E -> S (data to L2).
      ++stats_.forwards;
      SUVTM_OBS_HOOK(obs_, on_dir_forward(core, e->owner, l));
      out.latency +=
          mesh_.latency(bank, e->owner) + mesh_.latency(e->owner, core);
      if (Cache::Line* oln = l1_[e->owner].find(l)) {
        if (oln->state == CohState::kModified) {
          ++stats_.writebacks;
          l2_insert_with_recall(l, CohState::kModified);
          e = &dir_.entry(l);  // the recall path can touch the directory
        }
        oln->state = CohState::kShared;
      }
      e->sharers |= 1u << e->owner;
      e->owner = kNoCore;
      out.l2_hit = true;
    } else {
      out.l2_hit = l2_.find(l) != nullptr;
      out.latency += fetch_from_l2_or_memory(l);
      out.latency += mesh_.latency(bank, core);  // data reply
      e = &dir_.entry(l);  // the L2 fill may have moved the slot
    }
    const bool exclusive = e->sharers == 0 && e->owner == kNoCore;
    e->sharers |= 1u << core;
    // Track the E holder as owner so a later GETS downgrades it (MESI).
    if (exclusive) e->owner = core;
    Cache::Victim v =
        l1.insert(l, exclusive ? CohState::kExclusive : CohState::kShared);
    if (v.valid && v.speculative) {
      out.evicted_speculative = true;
      out.evicted_line = v.line;
    }
    l1_eviction(core, v);
    SUVTM_OBS_HOOK(obs_, on_l1_miss(core, obs_->now(), l, out.latency,
                                    out.l2_hit));
    return out;
  }

  // GETM.
  if (e->owner != kNoCore && e->owner != core) {
    ++stats_.forwards;
    SUVTM_OBS_HOOK(obs_, on_dir_forward(core, e->owner, l));
    out.latency +=
        mesh_.latency(bank, e->owner) + mesh_.latency(e->owner, core);
    if (Cache::Line* oln = l1_[e->owner].find(l)) {
      if (oln->state == CohState::kModified) {
        ++stats_.writebacks;
        l2_insert_with_recall(l, CohState::kModified);
        e = &dir_.entry(l);  // the recall path can touch the directory
      }
    }
    l1_[e->owner].invalidate(l);
    ++stats_.invalidations;
    e->owner = kNoCore;
    e->sharers = 0;
  } else {
    // Invalidate all other sharers; cost is the farthest round trip,
    // invalidations travel in parallel.
    Cycle worst = 0;
    for (std::uint32_t m = e->sharers & ~(1u << core); m != 0; m &= m - 1) {
      const CoreId c = static_cast<CoreId>(std::countr_zero(m));
      ++stats_.invalidations;
      l1_[c].invalidate(l);
      worst = std::max(worst, mesh_.latency(bank, c) + mesh_.latency(c, core));
    }
    out.latency += worst;
    const bool had_local_copy = ln != nullptr;
    if (!had_local_copy) {
      out.l2_hit = l2_.find(l) != nullptr;
      out.latency += fetch_from_l2_or_memory(l);
      out.latency += mesh_.latency(bank, core);
      e = &dir_.entry(l);  // the L2 fill may have moved the slot
    }
  }

  e->owner = core;
  e->sharers = 1u << core;
  Cache::Victim v = l1.insert(l, CohState::kModified);
  if (v.valid && v.speculative) {
    out.evicted_speculative = true;
    out.evicted_line = v.line;
  }
  l1_eviction(core, v);
  SUVTM_OBS_HOOK(obs_, on_l1_miss(core, obs_->now(), l, out.latency,
                                  out.l2_hit));
  return out;
}

bool MemorySystem::install_line(CoreId core, LineAddr l) {
  DirEntry& e = dir_.entry(l);
  // Invalidate any other holders (redirect targets are thread-private in
  // practice; this keeps the directory consistent regardless).
  for (std::uint32_t m = holder_mask(e) & ~(1u << core); m != 0; m &= m - 1) {
    l1_[std::countr_zero(m)].invalidate(l);
  }
  e.owner = core;
  e.sharers = 1u << core;
  Cache::Victim v = l1_[core].insert(l, CohState::kModified);
  const bool spec = v.valid && v.speculative;
  l1_eviction(core, v);
  return spec;
}

bool MemorySystem::mark_speculative(CoreId core, LineAddr l) {
  if (Cache::Line* ln = l1_[core].find(l)) {
    if (!ln->speculative) {
      ln->speculative = true;
      // Newly marked: remember it so commit/abort walk only the write set.
      // If the line is later evicted and re-marked, the duplicate entry is
      // harmless (the walk's residency/SM re-check skips it).
      spec_lines_[core].push_back(l);
    }
    return true;
  }
  return false;
}

void MemorySystem::clear_speculative(CoreId core) {
  for (LineAddr l : spec_lines_[core]) {
    if (Cache::Line* ln = l1_[core].find(l)) ln->speculative = false;
  }
  spec_lines_[core].clear();
}

void MemorySystem::invalidate_speculative(CoreId core) {
  for (LineAddr l : spec_lines_[core]) {
    Cache::Line* ln = l1_[core].find(l);
    if (!ln || !ln->speculative) continue;  // stale entry: evicted since
    l1_[core].invalidate(l);
    const bool dropped = dir_.remove_core(l, core);
    if (dropped) SUVTM_OBS_HOOK(obs_, on_dir_drop());
  }
  spec_lines_[core].clear();
}

}  // namespace suvtm::mem
