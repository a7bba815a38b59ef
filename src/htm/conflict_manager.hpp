// Eager conflict detection and the LogTM "Stall" resolution policy.
//
// Detection: every access (transactional or not -- strong isolation) is
// checked against all other cores' active signatures. A write conflicts with
// any other read or write signature hit; a read conflicts with a write
// signature hit. Transactions in kCommitting/kAborting still hold isolation.
//
// Resolution: the requester stalls and retries. A single-edge wait-for graph
// (each core stalls on at most one holder at a time) detects potential
// deadlock; the youngest transaction (latest first-attempt timestamp) in the
// cycle aborts, which matches LogTM's possible-cycle rule closely enough to
// preserve both progress and the paper's pathology dynamics.
//
// Parked retries: a plain stall's decision is a function of few inputs (the
// requester's line and access kind, the cores at or below the holder and
// the holder's exact sets), so the manager memoizes it per core and parks
// the core's wake record (sim::Park) until one of those inputs changes.
// The scheduler then dispatches the parked retries without re-checking
// (DESIGN.md section 12), and the core settles their stats in bulk
// (section 3).
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "htm/signature.hpp"
#include "htm/txn.hpp"
#include "obs/obs.hpp"
#include "sim/config.hpp"

namespace suvtm::sim {
class Park;
}

namespace suvtm::htm {

struct ConflictStats {
  std::uint64_t conflicts = 0;        // NACKed requests (incl. retries)
  std::uint64_t false_conflicts = 0;  // signature hit but exact-set miss
  std::uint64_t deadlock_aborts = 0;  // victims chosen by cycle detection
  std::uint64_t requester_wins = 0;   // holders doomed by kRequesterWins
  std::uint64_t suspended_stalls = 0; // NACKs from suspended-txn summaries

  bool operator==(const ConflictStats&) const = default;
};

/// Sum `b` into `a` (harvesting a sharded machine's per-domain managers).
inline void accumulate(ConflictStats& a, const ConflictStats& b) {
  a.conflicts += b.conflicts;
  a.false_conflicts += b.false_conflicts;
  a.deadlock_aborts += b.deadlock_aborts;
  a.requester_wins += b.requester_wins;
  a.suspended_stalls += b.suspended_stalls;
}

class ConflictManager {
 public:
  /// `sig_bits`/`sig_hashes` must match the per-transaction signature
  /// geometry: the bit-sliced columns below walk the same
  /// for_each_position indices as the signatures, so a column miss proves
  /// a signature miss.
  ConflictManager(std::uint32_t num_cores, sim::ConflictPolicy policy,
                  std::uint32_t sig_bits, std::uint32_t sig_hashes);

  sim::ConflictPolicy policy() const { return policy_; }

  /// What the requester must do about a detected conflict.
  enum class Action : std::uint8_t { kProceed, kStall, kAbortSelf };

  struct Decision {
    Action action = Action::kProceed;
    CoreId holder = kNoCore;  // conflicting core when not kProceed
    CoreId victim = kNoCore;  // transaction doomed by cycle detection
    AbortCause victim_cause = AbortCause::kNone;  // why `victim` is doomed
    /// Core mask (bit c = core c) of running lazy transactions that only
    /// *read* a line this write now takes exclusive ownership of: the
    /// coherence invalidation aborts them (DynTM semantics). The caller
    /// dooms them in ascending core order; the access proceeds.
    std::uint64_t invalidated_lazy_readers = 0;
  };
  static_assert(std::is_trivially_copyable_v<Decision>,
                "check() returns a Decision once per access and NACK retry");

  /// Check `line` access by `core` against all other transactions and apply
  /// the stall policy. `txns` is indexed by core; non-transactional
  /// requesters (txns[core] inactive) can only ever stall.
  ///
  /// Mixed-mode (DynTM) matrix -- lazy transactions buffer writes, so:
  ///  - a running lazy holder NACKs only writes that hit its write
  ///    signature (write-write conflicts stay eager; reads never see its
  ///    buffered data, so they pass),
  ///  - a lazy requester checks only holders' write signatures (readers do
  ///    not block it; it is doomed at their commit instead).
  ///
  /// Inline fast path: the bit-sliced column probe proves "no signature can
  /// hit" for the overwhelming majority of accesses without an out-of-line
  /// call; only candidate hits and suspended-summary checks take the slow
  /// path. A read can only conflict with write sets; a write with read or
  /// write sets (superset of every branch of the matrix above).
  Decision check(CoreId core, LineAddr line, bool is_write, bool requester_lazy,
                 const std::vector<Txn*>& txns) {
    const std::uint64_t lm = Signature::mix(line);
    std::uint64_t cand = probe_columns(write_cols_, lm);
    if (is_write) cand |= probe_columns(read_cols_, lm);
    cand &= isolation_mask_ & ~(1ull << core);
    grant_cand_ = cand;
    grant_susp_possible_ =
        suspended_reads_ != nullptr || suspended_writes_ != nullptr;
    if (cand == 0) [[likely]] {
      // Suspended-transaction summaries are not in the columns; test them
      // here so a registered summary doesn't force every access out of
      // line. Misses take the same proceed path the slow scan would.
      const bool susp_hit =
          (is_write && suspended_reads_ && suspended_reads_->test_mixed(lm)) ||
          (suspended_writes_ && suspended_writes_->test_mixed(lm));
      if (!susp_hit) [[likely]] {
        grant_susp_possible_ = false;
        waits_for_[core] = kNoCore;  // == clear_wait(core): access proceeds
        return {};
      }
    }
    return check_slow(core, line, is_write, requester_lazy, txns, lm, cand);
  }

  /// Callers must report every isolation transition (a core's txn going
  /// kIdle <-> non-idle) here. check() intersects the bit-sliced candidate
  /// mask with the cores holding isolation; releasing also scrubs the
  /// core's column bits so stale candidates stay bounded by one
  /// transaction's footprint.
  void set_isolation(CoreId core, bool held) {
    const std::uint64_t bit = 1ull << core;
    if (held) {
      isolation_mask_ |= bit;
    } else {
      isolation_mask_ &= ~bit;
      clear_columns(core);
      // A holder's release can turn its parked requesters' stall into a
      // grant. (A begin needs no unpark: its signatures start empty.)
      if (parked_mask_ != 0) unpark_if(core, kHolderIs);
    }
  }

  /// Mirror of Txn::read_sig.add / write_sig.add: every line added to a
  /// LIVE transaction's signature must be reported here (first add per line
  /// suffices -- repeats set the same bits) so the bit-sliced columns stay
  /// a superset of the per-core signatures (the correctness contract
  /// check() relies on: column miss => signature miss). Besides resync,
  /// HtmSystem's note_read/note_write are the simulator's one caller. The
  /// touched mixes are journaled so release clears cost O(footprint), not
  /// O(sig bits).
  void note_read(CoreId core, LineAddr l) {
    const std::uint64_t m = Signature::mix(l);
    set_column_bits(read_cols_, core, m);
    touched_[core].push_back(m);
    if (parked_mask_ != 0) watch(core, l, m, /*write=*/false);
  }
  void note_write(CoreId core, LineAddr l) {
    const std::uint64_t m = Signature::mix(l);
    set_column_bits(write_cols_, core, m);
    touched_[core].push_back(m);
    if (parked_mask_ != 0) watch(core, l, m, /*write=*/true);
  }

  /// `t` reappeared on `core` wholesale (a suspended transaction resumed)
  /// rather than line by line: unpark every core, then note t's exact
  /// sets. A signature holds exactly its exact set's filter positions
  /// (HtmSystem::note_read/note_write grow both together, and neither ever
  /// shrinks within an attempt), so the re-note rebuilds the core's
  /// columns bit for bit and journals every position it sets.
  void resync(CoreId core, const Txn& t);

  /// The requester's access succeeded or its transaction ended: drop its
  /// wait-for edge.
  void clear_wait(CoreId core);

  /// Summary signatures of suspended transactions (paper Section IV-C /
  /// LogTM-SE): accesses conflicting with a descheduled transaction's sets
  /// stall until it is resumed and finishes. Pass nullptr to clear.
  void set_suspended_summary(const Signature* reads, const Signature* writes) {
    suspended_reads_ = reads;
    suspended_writes_ = writes;
    // Suspend and resume move whole transactions between the cores and
    // the summaries; they are rare, so every parked core re-checks.
    if (parked_mask_ != 0) unpark_if(0, kAny);
  }

  // ---- parked retries -------------------------------------------------------
  /// The inputs of a memoized plain stall: the retry's access and what
  /// check() concluded about it.
  struct ParkMemo {
    LineAddr line = 0;
    std::uint64_t mix = 0;  // Signature::mix(line)
    CoreId holder = kNoCore;
    bool is_write = false;
    bool requester_lazy = false;
    bool requester_tx = false;  // the requester's txn was running
    bool exact = false;         // the holder's exact sets hold the line
  };

  /// Let `core`'s NACK retries park: from now on every plain stall check()
  /// returns to `core` -- a holder, no victim, not a suspended-summary
  /// stall -- records a ParkMemo and calls `park->park()`, and every change
  /// that can alter that decision calls `park->unpark()`. Cores that never
  /// register (PDES remote requesters) never park.
  void enable_parking(CoreId core, sim::Park* park) { parks_[core] = park; }

  bool parked(CoreId core) const { return (parked_mask_ >> core) & 1u; }
  std::uint64_t parked_mask() const { return parked_mask_; }
  /// The latest memo of `core`; it outlives the park until the core's next
  /// real retry, which settles the skipped ones with it.
  const ParkMemo& park_memo(CoreId core) const { return memo_[core]; }

  /// Count `n` skipped retries of `core` the way the checks they skipped
  /// would have: n NACKs, all of them false if the memo's was.
  void settle_parked(CoreId core, std::uint64_t n) {
    stats_.conflicts += n;
    if (!memo_[core].exact) stats_.false_conflicts += n;
  }

  /// `t` just left kRunning (commit or abort start). Only a running lazy
  /// transaction is matched by the narrower DynTM rules, so a lazy one
  /// unparks every core stalled on it or on a holder above it; a non-lazy
  /// one changes nothing check() reads.
  void left_running(const Txn& t) {
    if (t.lazy && parked_mask_ != 0) unpark_if(t.core, kHolderAtOrAbove);
  }

  /// Drop `core`'s park, if any (HtmSystem::doom: a doomed requester
  /// aborts at its next retry instead of re-checking).
  void unpark(CoreId core);

  /// Audit support: re-derive a parked core's decision from the live
  /// transactions with check()'s rules and no side effects. True iff a
  /// retry now would repeat the memoized plain stall.
  bool park_holds(CoreId core, const std::vector<Txn*>& txns) const;

  const ConflictStats& stats() const { return stats_; }

  /// Candidate mask the latest check() computed (columns AND isolation,
  /// requester excluded) and whether suspended summaries could have hit.
  /// Valid only inside the event that issued the check: the checker's
  /// grant audit, which runs immediately after a granted access, reuses
  /// it as its first filter (exact sets are subsets of the signatures,
  /// which are subsets of the columns, so a zero mask proves no live
  /// transaction holds the line). Initialized conservatively so a grant
  /// audit driven without a preceding check() still takes the slow scan.
  std::uint64_t grant_candidates() const { return grant_cand_; }
  bool grant_suspended_possible() const { return grant_susp_possible_; }

  /// Audit support: the raw column candidate mask for `line` (write or
  /// read columns, no isolation masking). audit_signatures uses it to
  /// prove the columns stay a superset of every live transaction's sets.
  std::uint64_t column_mask(LineAddr line, bool writes) const {
    return probe_columns(writes ? write_cols_ : read_cols_,
                         Signature::mix(line));
  }

  /// Observability: check() records an abort edge whenever it picks a
  /// victim (deadlock cycle, requester-wins, lazy-reader invalidation).
  void set_obs(obs::Recorder* r) { obs_ = r; }

 private:
  /// The rest of check(): scan the candidate cores' real signatures, apply
  /// the stall/requester-wins policy and deadlock detection. `lm` is the
  /// precomputed line mix, `cand` the masked candidate-core set.
  Decision check_slow(CoreId core, LineAddr line, bool is_write,
                      bool requester_lazy, const std::vector<Txn*>& txns,
                      std::uint64_t lm, std::uint64_t cand);

  /// The conflict matrix over `cand`: the first core (lowest id) whose
  /// real signatures conflict with the access, whether its exact sets hold
  /// the line, and the running lazy readers a write would invalidate on
  /// the way. Side-effect free.
  struct Scan {
    CoreId holder = kNoCore;
    bool exact = false;
    std::uint64_t lazy_readers = 0;
  };
  Scan scan(LineAddr line, bool is_write, bool requester_lazy,
            const std::vector<Txn*>& txns, std::uint64_t lm,
            std::uint64_t cand) const;

  /// The requester-wins rule: an older running requester dooms a holder
  /// that is not yet committing.
  bool requester_wins(const Txn* self, const Txn& holder) const {
    return policy_ == sim::ConflictPolicy::kRequesterWins && self &&
           self->active() && holder.state != TxnState::kCommitting &&
           self->timestamp < holder.timestamp;
  }

  void park(CoreId core, const ParkMemo& memo);
  /// `core` noted line `l` (mix `m`) into its write (or read) signature:
  /// unpark every core whose parked decision that can change.
  void watch(CoreId core, LineAddr l, std::uint64_t m, bool write);
  /// Unpark the parked cores whose memo's holder relates to `core` as
  /// `rel` says (kAny: all of them).
  enum Relation : std::uint8_t { kHolderIs, kHolderAtOrAbove, kAny };
  void unpark_if(CoreId core, Relation rel);

  /// Walk the wait-for chain from `start`; returns true if it reaches
  /// `target` (a cycle, given target is about to wait on start's chain).
  bool reaches(CoreId start, CoreId target) const;

  // ---- bit-sliced signature columns ---------------------------------------
  // cols[idx] holds one bit per core: set iff that core's signature has
  // filter bit `idx` set (or had it set since the core's last isolation
  // release -- stale supersets are harmless, the scan re-tests the real
  // signatures). Probing all cores therefore costs k column loads TOTAL
  // instead of k loads per active core: walking the line's filter
  // positions and AND-ing the k columns yields the mask of cores whose
  // signature passes every probe.
  std::uint64_t probe_columns(const std::vector<std::uint64_t>& cols,
                              std::uint64_t m) const {
    std::uint64_t hit = ~0ull;
    // Sparse columns: most probes die on load 1-2.
    for_each_position(m, col_k_, col_bits_, [&](std::uint32_t idx) {
      hit &= cols[idx];
      return hit != 0;
    });
    return hit;
  }

  void set_column_bits(std::vector<std::uint64_t>& cols, CoreId core,
                       std::uint64_t m) {
    for_each_position(m, col_k_, col_bits_, [&](std::uint32_t idx) {
      cols[idx] |= 1ull << core;
      return true;
    });
  }

  void clear_columns(CoreId core);

  std::vector<CoreId> waits_for_;  // kNoCore if not waiting
  std::uint64_t isolation_mask_ = 0;  // cores whose txn holds isolation
  std::uint64_t grant_cand_ = ~0ull;     // see grant_candidates()
  bool grant_susp_possible_ = true;
  sim::ConflictPolicy policy_;
  std::uint32_t col_bits_;  // == Signature bits of every probed txn
  std::uint32_t col_k_;     // == Signature hash count of every probed txn
  std::vector<std::uint64_t> read_cols_;   // col_bits_ words, bit per core
  std::vector<std::uint64_t> write_cols_;  // col_bits_ words, bit per core
  /// Per-core journal of noted line mixes; clear_columns scrubs exactly
  /// these positions (in both column arrays -- conservative but cheap)
  /// instead of sweeping every word. Every column bit is set by a note,
  /// so the journal covers them all.
  std::vector<std::vector<std::uint64_t>> touched_;
  const Signature* suspended_reads_ = nullptr;
  const Signature* suspended_writes_ = nullptr;
  ConflictStats stats_;
  obs::Recorder* obs_ = nullptr;

  // ---- parked retries -------------------------------------------------------
  std::vector<sim::Park*> parks_;  // per core; nullptr: never parks
  std::vector<ParkMemo> memo_;
  std::uint64_t parked_mask_ = 0;  // cores whose park is set
  /// Watch columns, same geometry as the signature columns: bit p of word
  /// idx is set iff parked core p's line sets filter bit idx. A noted line
  /// can only make a signature hit a parked line if they share a bit, so
  /// one OR over the noted line's k words finds every parked core it may
  /// affect. Allocated at the first park.
  std::vector<std::uint64_t> watch_cols_;
};

}  // namespace suvtm::htm
