#include "vm/logtm_se.hpp"

#include "obs/recorder.hpp"

namespace suvtm::vm {

Cycle log_undo_word(htm::Txn& txn, Addr a, mem::MemorySystem& mem,
                    const sim::HtmParams& p, htm::VmStats& stats,
                    bool charge_cycles) {
  const Addr word = a & ~static_cast<Addr>(kWordBytes - 1);
  if (txn.logged_words.count(word)) return 0;
  txn.logged_words.insert(word);
  txn.undo.emplace_back(word, mem.load_word(word));
  ++stats.log_entries;
  if (!charge_cycles) return 0;
  Cycle extra = p.log_store_extra;
  // A 64-byte log line holds eight 8-byte-old-value records; each new log
  // line costs a store-miss fill.
  if (txn.undo.size() % kWordsPerLine == 1) extra += p.log_new_line_extra;
  return extra;
}

void restore_undo_log(htm::Txn& txn, mem::MemorySystem& mem) {
  for (auto it = txn.undo.rbegin(); it != txn.undo.rend(); ++it) {
    mem.store_word(it->first, it->second);
  }
}

std::size_t pop_undo_to(htm::Txn& txn, std::size_t mark,
                        mem::MemorySystem& mem) {
  std::size_t walked = 0;
  while (txn.undo.size() > mark) {
    const auto [addr, old] = txn.undo.back();
    mem.store_word(addr, old);
    txn.logged_words.erase(addr);
    txn.undo.pop_back();
    ++walked;
  }
  return walked;
}

htm::StoreAction LogTmSe::on_tx_store(htm::Txn& txn, Addr a) {
  ++stats_.tx_stores;
  const Cycle extra =
      log_undo_word(txn, a, mem_, params_, stats_, /*charge_cycles=*/true);
  return {a, extra, false};
}

Cycle LogTmSe::commit_cost(htm::Txn&) {
  // Discard the log and flash-clear signatures: constant time.
  return 4;
}

void LogTmSe::on_commit_done(htm::Txn& txn) {
  mem_.clear_speculative(txn.core);
}

Cycle LogTmSe::abort_cost(htm::Txn& txn) {
  // Trap into the software handler, then restore entries one by one; the
  // isolation window stays open throughout (repair pathology).
  SUVTM_OBS_HOOK(obs_, on_undo_walk(txn.undo.size()));
  return params_.abort_trap_latency +
         params_.abort_per_entry * static_cast<Cycle>(txn.undo.size());
}

void LogTmSe::on_abort_done(htm::Txn& txn) {
  restore_undo_log(txn, mem_);
  mem_.clear_speculative(txn.core);
}

Cycle LogTmSe::partial_abort(htm::Txn& txn, std::size_t mark) {
  // Walk only the innermost frame's undo entries, newest first.
  const std::size_t walked = pop_undo_to(txn, mark, mem_);
  return params_.abort_trap_latency / 2 +
         params_.abort_per_entry * static_cast<Cycle>(walked);
}

void LogTmSe::on_spec_eviction(htm::Txn&, LineAddr) {
  // In-place updates with sticky signatures: eviction of transactional data
  // is legal, it just counts as a transactional overflow (Table V).
  ++stats_.data_overflows;
}

}  // namespace suvtm::vm
