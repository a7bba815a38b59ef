#include "vm/suv_vm.hpp"

#include <cassert>

#include "obs/recorder.hpp"

namespace suvtm::vm {

namespace {
Addr with_line(LineAddr l, Addr original) {
  return addr_of_line(l) | (original & (kLineBytes - 1));
}
}  // namespace

SuvVm::SuvVm(const sim::SuvParams& p, mem::MemorySystem& mem,
             std::uint32_t num_cores, CoreRange local)
    : params_(p), mem_(mem), table_(p, num_cores, local) {
  pools_.reserve(num_cores);
  for (std::uint32_t c = 0; c < num_cores; ++c) {
    pools_.push_back(std::make_unique<suv::PreservedPool>(c));
  }
}

htm::LoadAction SuvVm::resolve_load(CoreId core, htm::Txn* txn, Addr a) {
  if (txn) ++stats_.tx_loads;
  const auto res = table_.lookup(core, line_of(a));
  if (!res.entry) return {a, res.squash, res.probe, std::nullopt};
  const LineAddr target = res.entry->resolve_for(core);
  return {with_line(target, a), res.squash, res.probe, std::nullopt};
}

Addr SuvVm::debug_resolve(CoreId core, Addr a) const {
  const suv::RedirectEntry* e = table_.find(line_of(a));
  if (!e) return a;
  return with_line(e->resolve_for(core), a);
}

htm::StoreAction SuvVm::on_tx_store(htm::Txn& txn, Addr a) {
  ++stats_.tx_stores;
  const LineAddr line = line_of(a);
  const auto res = table_.lookup(txn.core, line);
  Cycle extra = res.squash;
  const Cycle probe = res.probe;

  if (!res.entry) {
    // Fresh redirect: allocate a pool line, seed it with the line's current
    // content (one in-cache copy), install the transient entry. The store
    // itself then lands at the redirected address -- the single update. The
    // target line materializes directly in the L1 (its data came from the
    // copy), so no memory fetch happens for it.
    const LineAddr target = pools_[txn.core]->allocate();
    mem_.backing().copy_line(line, target);
    if (mem_.install_line(txn.core, target)) {
      txn.overflowed = true;
      on_spec_eviction(txn, target);
    }
    suv::RedirectEntry e{line, target, suv::EntryState::kTxnRedirect, txn.core};
    extra += table_.insert_transient(e) + kRedirectCopyLatency;
    txn.redirected.push_back(line);
    ++sstats_.entries_created;
    return {with_line(target, a), extra, probe, false};
  }

  suv::RedirectEntry* e = table_.find(line);
  assert(e);
  switch (e->state) {
    case suv::EntryState::kTxnRedirect:
      assert(e->owner == txn.core && "conflict detection admitted a foreign store");
      return {with_line(e->target, a), extra, probe, false};
    case suv::EntryState::kTxnUnredirect:
      assert(e->owner == txn.core && "conflict detection admitted a foreign store");
      return {with_line(e->original, a), extra, probe, false};
    case suv::EntryState::kGlobalRedirect: {
      // Toggle: redirect back to the original address (paper Figure 4(d)).
      // New values build in the original line; the global target keeps the
      // old version for abort. Commit deletes the entry entirely, which is
      // SUV's entry-count reduction feature. The copy materializes the
      // original line in the L1.
      mem_.backing().copy_line(e->target, e->original);
      if (mem_.install_line(txn.core, e->original)) {
        txn.overflowed = true;
        on_spec_eviction(txn, e->original);
      }
      e->state = suv::EntryState::kTxnUnredirect;
      e->owner = txn.core;
      extra += table_.pin_transient(txn.core, line) + kRedirectCopyLatency;
      txn.redirected.push_back(line);
      ++sstats_.entries_toggled;
      return {with_line(e->original, a), extra, probe, false};
    }
    case suv::EntryState::kInvalid:
    default:
      assert(false && "invalid entries must not be reachable from the table");
      return {a, extra, probe, false};
  }
}

Cycle SuvVm::overflow_flip_cost(const htm::Txn& txn) const {
  const std::size_t entries = txn.redirected.size();
  const std::size_t cap = table_.l1_capacity();
  if (entries <= cap) return 0;
  // Spilled entries flip through the shared second-level table, one access
  // plus a cycle per entry.
  return params_.l2_table_latency + static_cast<Cycle>(entries - cap);
}

Cycle SuvVm::commit_cost(htm::Txn& txn) {
  Cycle c = kFlashCommit + overflow_flip_cost(txn);
  if (txn.redirected.size() > table_.l1_capacity()) {
    ++sstats_.table_overflow_txns;
  }
  SUVTM_OBS_HOOK(obs_, on_suv_flash(txn.core, /*commit=*/true,
                                    txn.redirected.size()));
  return c;
}

void SuvVm::on_commit_done(htm::Txn& txn) {
  for (LineAddr line : txn.redirected) {
    const auto out = table_.commit_entry(line);
    if (out.deleted) {
      ++sstats_.entries_deleted;
      pools_[suv::PreservedPool::owner_of(out.target)]->release(out.target);
    } else {
      ++sstats_.entries_published;
      // The original line's storage is now dead (all accesses go to the
      // target); the paper reclaims it for later redirections.
      pools_[txn.core]->note_reclaimable_original();
    }
  }
  txn.redirected.clear();
  mem_.clear_speculative(txn.core);
}

Cycle SuvVm::abort_cost(htm::Txn& txn) {
  SUVTM_OBS_HOOK(obs_, on_suv_flash(txn.core, /*commit=*/false,
                                    txn.redirected.size()));
  return kFlashAbort + overflow_flip_cost(txn);
}

Cycle SuvVm::partial_abort(htm::Txn& txn, std::size_t mark) {
  // Flash-flip only the transient entries the discarded frame created; the
  // outer frame's entries (and any toggles it made) survive untouched.
  while (txn.redirected.size() > mark) {
    discard_entry(txn.redirected.back());
    txn.redirected.pop_back();
  }
  return kFlashAbort;
}

void SuvVm::discard_entry(LineAddr line) {
  const auto out = table_.abort_entry(line);
  if (out.deleted) {
    ++sstats_.entries_discarded;
    pools_[suv::PreservedPool::owner_of(out.target)]->release(out.target);
  } else {
    // A toggled entry reverted to kGlobalRedirect; nothing to free.
    ++sstats_.entries_reverted;
  }
}

void SuvVm::on_abort_done(htm::Txn& txn) {
  // Oldest first, unlike partial_abort's newest-first pops: pool-release
  // order feeds later allocations, so each loop keeps its order.
  for (LineAddr line : txn.redirected) discard_entry(line);
  txn.redirected.clear();
  // No invalidations: the original lines still hold the pre-transaction
  // values (single-update property); pool lines are simply released.
  mem_.clear_speculative(txn.core);
}

}  // namespace suvtm::vm
