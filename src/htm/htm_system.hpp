// HtmSystem: per-core transactions + conflict manager + the configured
// version-management scheme, glued over the memory system.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "htm/conflict_manager.hpp"
#include "htm/txn.hpp"
#include "htm/version_manager.hpp"
#include "mem/memory_system.hpp"
#include "sim/config.hpp"

namespace suvtm::check {
class Checker;
}

namespace suvtm::htm {

struct HtmStats {
  std::uint64_t begins = 0;     // outermost transaction attempts
  std::uint64_t commits = 0;    // committed atomic blocks
  std::uint64_t aborts = 0;     // aborted attempts
  std::uint64_t nested_begins = 0;
  /// Attempts (committed or aborted) whose speculative state overflowed the
  /// L1 -- the paper Table V's "overflowed transactions" metric.
  std::uint64_t overflowed_attempts = 0;

  bool operator==(const HtmStats&) const = default;

  double abort_ratio() const {
    const double att = static_cast<double>(commits + aborts);
    return att == 0.0 ? 0.0 : static_cast<double>(aborts) / att;
  }
};

/// Sum `b` into `a` (harvesting a sharded machine's per-domain HTM systems).
inline void accumulate(HtmStats& a, const HtmStats& b) {
  a.begins += b.begins;
  a.commits += b.commits;
  a.aborts += b.aborts;
  a.nested_begins += b.nested_begins;
  a.overflowed_attempts += b.overflowed_attempts;
}

class HtmSystem {
 public:
  HtmSystem(const sim::SimConfig& cfg, mem::MemorySystem& mem,
            std::unique_ptr<VersionManager> vm);

  Txn& txn(CoreId c) { return txns_[c]; }
  const Txn& txn(CoreId c) const { return txns_[c]; }
  std::vector<Txn*>& txn_view() { return txn_view_; }
  const std::vector<Txn*>& txn_view() const { return txn_view_; }

  VersionManager& vm() { return *vm_; }
  const VersionManager& vm() const { return *vm_; }
  ConflictManager& conflicts() { return conflicts_; }
  const ConflictManager& conflicts() const { return conflicts_; }
  mem::MemorySystem& mem() { return mem_; }
  const mem::MemorySystem& mem() const { return mem_; }
  std::uint32_t num_cores() const {
    return static_cast<std::uint32_t>(txns_.size());
  }

  /// Optional correctness checker; receives suspend/resume notifications
  /// (all other hooks fire from ThreadContext, which owns the clock).
  void set_checker(check::Checker* ck) { checker_ = ck; }
  check::Checker* checker() { return checker_; }

  /// Optional observability recorder; fans out to the conflict manager and
  /// the version manager (which forwards into the SUV structures).
  void set_obs(obs::Recorder* r) {
    obs_ = r;
    conflicts_.set_obs(r);
    vm_->set_obs(r);
  }

  HtmStats& stats() { return stats_; }
  const HtmStats& stats() const { return stats_; }

  /// Grow running transaction `t`'s read (write) footprint by line `l`:
  /// on the line's first touch, the exact set, the signature and the
  /// conflict manager's columns. The one path by which a footprint grows,
  /// so a signature always holds exactly its exact set's filter positions
  /// (ConflictManager::resync relies on that).
  void note_read(Txn& t, LineAddr l) {
    if (t.read_lines.insert(l)) {
      t.read_sig.add(l);
      conflicts_.note_read(t.core, l);
    }
  }
  void note_write(Txn& t, LineAddr l) {
    if (t.write_lines.insert(l)) {
      t.write_sig.add(l);
      conflicts_.note_write(t.core, l);
    }
  }

  /// Mark a victim transaction for abort (lazy committer wins, or deadlock
  /// cycle). No-op for idle or committing transactions. The first doom's
  /// cause sticks; it feeds the abort-cause attribution in obs.
  void doom(CoreId victim, AbortCause cause = AbortCause::kExplicit);

  // --- Thread suspension (paper Section IV-C) ------------------------------
  /// Park the core's running transaction: the whole descriptor is copied
  /// aside (every piece of per-attempt state lives on it, SUV's entry list
  /// included) and its read/write sets move into the suspended-summary
  /// signatures that every conflict check consults, so isolation survives
  /// the deschedule. Returns false if no transaction is running. The core
  /// gets a clean descriptor for the next thread.
  bool suspend_txn(CoreId core);
  /// Un-park the core's first suspended transaction by copying its
  /// descriptor back (the core's current descriptor must be idle); the
  /// conflict manager re-notes its exact sets. Returns false if nothing
  /// was suspended.
  bool resume_txn(CoreId core);
  std::size_t suspended_count() const { return suspended_.size(); }

  /// Visit each suspended transaction as fn(core, txn) in park order.
  template <class Fn>
  void for_each_suspended(Fn&& fn) const {
    for (const auto& s : suspended_) fn(s.core, s.txn);
  }
  const Signature& suspended_read_summary() const { return suspended_reads_; }
  const Signature& suspended_write_summary() const {
    return suspended_writes_;
  }

  /// Committer-wins against parked victims: mark every suspended
  /// transaction whose read or write set intersects `committer`'s write set
  /// as doomed (it aborts on resume; it cannot be aborted while parked).
  /// Returns the number of freshly doomed transactions.
  std::size_t doom_suspended_conflicting(const Txn& committer);

  // --- Lazy-commit arbitration token (one committer at a time) -------------
  bool commit_token_free() const { return token_holder_ == kNoCore; }
  bool acquire_commit_token(CoreId c);
  void release_commit_token(CoreId c);

 private:
  mem::MemorySystem& mem_;
  std::unique_ptr<VersionManager> vm_;
  ConflictManager conflicts_;
  void rebuild_suspended_summary();

  /// One descriptor per core in one array, never resized after
  /// construction: txn_view_ points into it.
  std::vector<Txn> txns_;
  std::vector<Txn*> txn_view_;
  HtmStats stats_;
  CoreId token_holder_ = kNoCore;
  check::Checker* checker_ = nullptr;
  obs::Recorder* obs_ = nullptr;

  struct Suspended {
    CoreId core;
    Txn txn;
  };
  std::vector<Suspended> suspended_;
  Signature suspended_reads_;
  Signature suspended_writes_;
};

}  // namespace suvtm::htm
