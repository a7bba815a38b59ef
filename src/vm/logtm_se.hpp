// LogTM-SE version management (Yen et al., HPCA'07): eager, in-place
// updates with a software-walked undo log.
//
// Cost model (paper Section II): each first transactional store to a word
// performs one extra load (read the old value) and one store (append to the
// per-thread undo log); every 8th log entry opens a new log line. Commit
// discards the log (cheap). Abort traps into a software handler that walks
// the log backwards restoring old values -- all while the transaction's
// isolation is still held, which is the repair pathology the paper targets.
#pragma once

#include "htm/version_manager.hpp"
#include "mem/memory_system.hpp"
#include "sim/config.hpp"

namespace suvtm::vm {

class LogTmSe final : public htm::VersionManager {
 public:
  LogTmSe(const sim::HtmParams& p, mem::MemorySystem& mem)
      : params_(p), mem_(mem) {
    loads_in_place_ = true;  // resolve_load below is the identity action
  }

  const char* name() const override { return "LogTM-SE"; }

  htm::LoadAction resolve_load(CoreId, htm::Txn*, Addr a) override {
    return {a, 0, 0, std::nullopt};
  }

  htm::StoreAction on_tx_store(htm::Txn& txn, Addr a) override;
  Cycle commit_cost(htm::Txn& txn) override;
  void on_commit_done(htm::Txn& txn) override;
  Cycle abort_cost(htm::Txn& txn) override;
  void on_abort_done(htm::Txn& txn) override;
  void on_spec_eviction(htm::Txn& txn, LineAddr l) override;
  Cycle partial_abort(htm::Txn& txn, std::size_t mark) override;

 private:
  sim::HtmParams params_;
  mem::MemorySystem& mem_;
};

/// Shared helper: append a word-granularity undo record (old value of `a`)
/// if this transaction has not logged the word yet. Returns the extra
/// cycles the log maintenance costs. Used by LogTM-SE always and by FasTM
/// after it degenerates.
Cycle log_undo_word(htm::Txn& txn, Addr a, mem::MemorySystem& mem,
                    const sim::HtmParams& p, htm::VmStats& stats,
                    bool charge_cycles);

/// Shared helper: functionally restore all logged words (newest first).
void restore_undo_log(htm::Txn& txn, mem::MemorySystem& mem);

/// Shared helper for closed-nesting partial aborts: restore and pop the undo
/// entries above `mark`, newest first, forgetting their words so a retry
/// logs them again. Returns how many entries it walked.
std::size_t pop_undo_to(htm::Txn& txn, std::size_t mark,
                        mem::MemorySystem& mem);

}  // namespace suvtm::vm
