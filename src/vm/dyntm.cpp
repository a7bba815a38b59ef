#include "vm/dyntm.hpp"

#include "htm/htm_system.hpp"
#include "obs/recorder.hpp"

namespace suvtm::vm {

DynTm::DynTm(mem::MemorySystem& mem,
             std::unique_ptr<htm::VersionManager> inner, bool suv_backend)
    : mem_(mem), inner_(std::move(inner)), suv_backend_(suv_backend) {}

void DynTm::attach(htm::HtmSystem& htm) {
  htm::VersionManager::attach(htm);
  inner_->attach(htm);
}

Cycle DynTm::on_begin(htm::Txn& txn) {
  txn.lazy = selector_.predict_lazy(txn.site);
  if (txn.lazy) {
    ++dstats_.lazy_txns;
    return 0;  // no eager-mode begin work (FasTM's dirty write-back)
  }
  ++dstats_.eager_txns;
  return inner_->on_begin(txn);
}

htm::LoadAction DynTm::resolve_load(CoreId core, htm::Txn* txn, Addr a) {
  if (txn && lazy_buffer_mode(*txn)) {
    const Addr word = a & ~static_cast<Addr>(kWordBytes - 1);
    auto it = txn->redo.find(word);
    if (it != txn->redo.end()) return {a, 0, 0, it->second};
    return {a, 0, 0, std::nullopt};
  }
  return inner_->resolve_load(core, txn, a);
}

htm::StoreAction DynTm::on_tx_store(htm::Txn& txn, Addr a) {
  ++stats_.tx_stores;
  if (lazy_buffer_mode(txn)) {
    // Redo-buffered store: stays in the core's private buffer until commit.
    return {.target = a & ~static_cast<Addr>(kWordBytes - 1),
            .extra = 0,
            .extra_if_l1_hit = 0,
            .buffered = true};
  }
  // SUV backend handles lazy stores physically (redirection); eager mode
  // always delegates.
  return inner_->on_tx_store(txn, a);
}

bool DynTm::commit_ready(htm::Txn& txn) {
  if (!txn.lazy) return true;
  // Eager transactions own their lines via coherence: the committer cannot
  // take them away; it waits (bounded, to break mutual-wait deadlocks with
  // eager writers stalled on the committer's own write signature).
  constexpr std::uint32_t kMaxCommitWaits = 8;
  if (txn.commit_waits >= kMaxCommitWaits) return true;
  auto& txns = htm_->txn_view();
  for (CoreId c = 0; c < txns.size(); ++c) {
    if (c == txn.core) continue;
    const htm::Txn* t = txns[c];
    if (!t || !t->active() || t->lazy) continue;
    for (LineAddr l : txn.write_lines) {
      if (t->read_sig.test(l) || t->write_sig.test(l)) {
        ++txn.commit_waits;
        return false;
      }
    }
  }
  return true;
}

void DynTm::doom_conflicting(const htm::Txn& committer) {
  auto& txns = htm_->txn_view();
  for (CoreId c = 0; c < txns.size(); ++c) {
    if (c == committer.core) continue;
    htm::Txn* t = txns[c];
    if (!t || t->state != htm::TxnState::kRunning) continue;
    for (LineAddr l : committer.write_lines) {
      if (t->read_sig.test(l) || t->write_sig.test(l)) {
        htm_->doom(c, htm::AbortCause::kLazyCommitDoom);
        SUVTM_OBS_HOOK(obs_, on_conflict_edge(committer.core, c, l, t->site,
                                              htm::AbortCause::kLazyCommitDoom));
        ++dstats_.lazy_commit_dooms;
        break;
      }
    }
  }
  // Committer-wins must reach descheduled victims too: a suspended
  // transaction that read a line this commit publishes would otherwise
  // resume and commit its stale view. It cannot be aborted while parked,
  // so it is marked doomed and aborts on resume.
  dstats_.lazy_commit_dooms += htm_->doom_suspended_conflicting(committer);
}

Cycle DynTm::commit_cost(htm::Txn& txn) {
  if (!txn.lazy) return inner_->commit_cost(txn);

  // Lazy commit: committer wins -- conflicting running transactions abort.
  doom_conflicting(txn);
  Cycle c = kArbitration;
  if (suv_backend_) {
    // Writes already sit in their redirected locations: publication is the
    // SUV flash flip.
    c += inner_->commit_cost(txn);
  } else {
    // Publish the redo buffer line by line (the paper's Committing time).
    c += kPublishPerLine * static_cast<Cycle>(txn.write_lines.size());
    // A redo buffer that outgrew the L1 pays memory traffic on top.
    if (txn.redo.size() * kWordBytes > mem_.params().l1_bytes) {
      ++dstats_.redo_overflows;
      ++stats_.data_overflows;
      c += kPublishPerLine * static_cast<Cycle>(txn.write_lines.size());
    }
  }
  return c;
}

void DynTm::on_commit_done(htm::Txn& txn) {
  selector_.record_commit(txn.site, txn.lazy);
  if (lazy_buffer_mode(txn)) {
    for (const auto& [addr, value] : txn.redo) mem_.store_word(addr, value);
    mem_.clear_speculative(txn.core);
    return;
  }
  inner_->on_commit_done(txn);
}

Cycle DynTm::abort_cost(htm::Txn& txn) {
  if (lazy_buffer_mode(txn)) return kLazyAbort;
  return inner_->abort_cost(txn);
}

void DynTm::on_abort_done(htm::Txn& txn) {
  selector_.record_abort(txn.site, txn.lazy);
  if (lazy_buffer_mode(txn)) {
    // Buffered writes never reached memory: discarding the buffer suffices.
    mem_.clear_speculative(txn.core);
    return;
  }
  inner_->on_abort_done(txn);
}

void DynTm::on_spec_eviction(htm::Txn& txn, LineAddr l) {
  if (lazy_buffer_mode(txn)) {
    ++stats_.data_overflows;
    return;
  }
  inner_->on_spec_eviction(txn, l);
}

}  // namespace suvtm::vm
