// SUV version management -- the paper's contribution.
//
// Every transactional store is redirected to a line in the per-core
// preserved pool (or toggled back to its original line if a global redirect
// entry already exists); the redirect table tracks the mapping. Commit and
// abort are flash bit-flips over the transaction's transient entries:
// exactly one data update happens per store regardless of outcome, so both
// ends of the transaction release isolation in near-constant time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "htm/version_manager.hpp"
#include "mem/memory_system.hpp"
#include "sim/config.hpp"
#include "suv/pool.hpp"
#include "suv/redirect_table.hpp"

namespace suvtm::vm {

struct SuvVmStats {
  std::uint64_t entries_created = 0;     // fresh transient redirects
  std::uint64_t entries_toggled = 0;     // redirect-back on a global entry
  std::uint64_t entries_published = 0;   // transient -> global at commit
  std::uint64_t entries_deleted = 0;     // toggle-commit deletions
  std::uint64_t entries_discarded = 0;   // transient removed at abort
  std::uint64_t entries_reverted = 0;    // toggle rolled back to global
  std::uint64_t table_overflow_txns = 0; // txns whose entries spilled the L1 table

  bool operator==(const SuvVmStats&) const = default;
};

/// Sum `b` into `a` (harvesting a sharded machine's per-domain SUV state).
inline void accumulate(SuvVmStats& a, const SuvVmStats& b) {
  a.entries_created += b.entries_created;
  a.entries_toggled += b.entries_toggled;
  a.entries_published += b.entries_published;
  a.entries_deleted += b.entries_deleted;
  a.entries_discarded += b.entries_discarded;
  a.entries_reverted += b.entries_reverted;
  a.table_overflow_txns += b.table_overflow_txns;
}

class SuvVm final : public htm::VersionManager {
 public:
  // Fixed costs in cycles.
  /// In-cache line copy on a fresh redirect or a toggle.
  static constexpr Cycle kRedirectCopyLatency = 1;
  /// Flip the transient entries and update the summary signatures.
  static constexpr Cycle kFlashCommit = 2;
  static constexpr Cycle kFlashAbort = 2;

  /// A version manager for `num_cores` cores, of which the domain runs
  /// `local` (see suv::RedirectTable).
  SuvVm(const sim::SuvParams& p, mem::MemorySystem& mem,
        std::uint32_t num_cores, CoreRange local);
  /// A version manager whose cores are all local (a monolithic machine).
  SuvVm(const sim::SuvParams& p, mem::MemorySystem& mem,
        std::uint32_t num_cores)
      : SuvVm(p, mem, num_cores, CoreRange{0, num_cores}) {}

  const char* name() const override { return "SUV-TM"; }

  void set_obs(obs::Recorder* r) override {
    htm::VersionManager::set_obs(r);
    table_.set_obs(r);
    for (auto& p : pools_) p->set_obs(r);
  }

  htm::LoadAction resolve_load(CoreId core, htm::Txn* txn, Addr a) override;
  Addr debug_resolve(CoreId core, Addr a) const override;
  htm::StoreAction on_tx_store(htm::Txn& txn, Addr a) override;
  Cycle commit_cost(htm::Txn& txn) override;
  void on_commit_done(htm::Txn& txn) override;
  Cycle abort_cost(htm::Txn& txn) override;
  void on_abort_done(htm::Txn& txn) override;
  std::size_t nest_mark(const htm::Txn& txn) const override {
    return txn.redirected.size();
  }
  Cycle partial_abort(htm::Txn& txn, std::size_t mark) override;

  suv::RedirectTable& table() { return table_; }
  const suv::RedirectTable& table() const { return table_; }
  suv::PreservedPool& pool(CoreId c) { return *pools_[c]; }
  const suv::PreservedPool& pool(CoreId c) const { return *pools_[c]; }
  const SuvVmStats& suv_stats() const { return sstats_; }

 private:
  /// Extra commit/abort flash cost for entries that spilled to the shared
  /// second-level table (their flips cannot ride the per-core flash).
  Cycle overflow_flip_cost(const htm::Txn& txn) const;
  /// Flash-flip one aborted transient entry: a fresh redirect is discarded
  /// and its pool line released; a toggle reverts to kGlobalRedirect.
  void discard_entry(LineAddr line);

  sim::SuvParams params_;
  mem::MemorySystem& mem_;
  suv::RedirectTable table_;
  std::vector<std::unique_ptr<suv::PreservedPool>> pools_;
  SuvVmStats sstats_;
};

}  // namespace suvtm::vm
