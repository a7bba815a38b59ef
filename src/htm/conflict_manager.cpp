#include "htm/conflict_manager.hpp"

#include <bit>
#include <cassert>

#include "obs/recorder.hpp"
#include "sim/scheduler.hpp"

namespace suvtm::htm {

ConflictManager::ConflictManager(std::uint32_t num_cores,
                                 sim::ConflictPolicy policy,
                                 std::uint32_t sig_bits,
                                 std::uint32_t sig_hashes)
    : waits_for_(num_cores, kNoCore),
      policy_(policy),
      col_bits_(sig_bits),
      col_k_(sig_hashes),
      read_cols_(sig_bits, 0),
      write_cols_(sig_bits, 0),
      touched_(num_cores),
      parks_(num_cores, nullptr),
      memo_(num_cores) {
  assert(num_cores <= 64 && "isolation/column masks are 64-bit words");
  assert(std::has_single_bit(sig_bits) && "signature bits must be a power of 2");
}

void ConflictManager::clear_columns(CoreId core) {
  std::vector<std::uint64_t>& journal = touched_[core];
  const std::uint64_t keep = ~(1ull << core);
  // Past ~bits/k journal entries the positions cover most of the filter
  // anyway; the sweep is cheaper and exact.
  if (journal.size() * col_k_ > col_bits_) {
    for (std::uint64_t& w : read_cols_) w &= keep;
    for (std::uint64_t& w : write_cols_) w &= keep;
  } else {
    for (const std::uint64_t m : journal) {
      for_each_position(m, col_k_, col_bits_, [&](std::uint32_t idx) {
        read_cols_[idx] &= keep;
        write_cols_[idx] &= keep;
        return true;
      });
    }
  }
  journal.clear();
}

void ConflictManager::resync(CoreId core, const Txn& t) {
  // The core's sets reappear wholesale, not line by line through the
  // watched notes: every parked decision re-checks. With nothing parked,
  // the notes below skip their watch.
  if (parked_mask_ != 0) unpark_if(0, kAny);
  for (LineAddr l : t.read_lines) note_read(core, l);
  for (LineAddr l : t.write_lines) note_write(core, l);
}

bool ConflictManager::reaches(CoreId start, CoreId target) const {
  CoreId cur = start;
  // The walk terminates: waits_for_ has at most one out-edge per core and we
  // bound the walk by the core count.
  for (std::size_t steps = 0; steps <= waits_for_.size(); ++steps) {
    if (cur == kNoCore) return false;
    if (cur == target) return true;
    cur = waits_for_[cur];
  }
  return false;
}

ConflictManager::Scan ConflictManager::scan(LineAddr line, bool is_write,
                                             bool requester_lazy,
                                             const std::vector<Txn*>& txns,
                                             std::uint64_t lm,
                                             std::uint64_t cand) const {
  Scan s;
  // `cand` came from the inline bit-sliced pre-filter: cores outside it are
  // proven signature misses. This loop re-tests the survivors' real
  // signatures, so decisions are identical to the historical full per-core
  // scan (bit iteration walks cores in increasing order, matching the old
  // loop's tie-breaking).
  for (std::uint64_t m = cand; m != 0; m &= m - 1) {
    const CoreId c = static_cast<CoreId>(std::countr_zero(m));
    const Txn* t = txns[c];
    if (!t || !t->active()) continue;
    const bool holder_lazy_running =
        t->lazy && t->state == TxnState::kRunning;
    bool hit;
    bool check_read_sig;
    if (holder_lazy_running) {
      // Buffered writes confer no coherence permission: only write-write
      // conflicts are eager against a running lazy transaction. A write to a
      // line the lazy transaction merely READ invalidates its cached copy,
      // which aborts it (it cannot revalidate its read set).
      hit = is_write && t->write_sig.test_mixed(lm);
      check_read_sig = false;
      if (!hit && is_write && t->read_sig.test_mixed(lm)) {
        s.lazy_readers |= 1ull << c;
        continue;
      }
    } else if (requester_lazy) {
      // A lazy requester never blocks on readers; uncommitted in-place or
      // publishing write sets must still NACK it.
      hit = t->write_sig.test_mixed(lm);
      check_read_sig = false;
    } else {
      hit = is_write ? (t->read_sig.test_mixed(lm) || t->write_sig.test_mixed(lm))
                     : t->write_sig.test_mixed(lm);
      check_read_sig = is_write;
    }
    if (!hit) continue;
    s.holder = c;
    s.exact = t->write_lines.count(line) != 0 ||
              (check_read_sig && t->read_lines.count(line) != 0);
    break;
  }
  return s;
}

ConflictManager::Decision ConflictManager::check_slow(
    CoreId core, LineAddr line, bool is_write, bool requester_lazy,
    const std::vector<Txn*>& txns, std::uint64_t lm, std::uint64_t cand) {
  const Txn* self = txns[core];
  const Scan s = scan(line, is_write, requester_lazy, txns, lm, cand);
  const CoreId holder = s.holder;
  Decision d;
  if (holder == kNoCore) {
    // Check the suspended-transaction summaries (descheduled transactions
    // still hold isolation; their sets live in the per-core summary).
    const bool susp_hit =
        (is_write && suspended_reads_ && suspended_reads_->test_mixed(lm)) ||
        (suspended_writes_ && suspended_writes_->test_mixed(lm));
    if (susp_hit) {
      ++stats_.conflicts;
      ++stats_.suspended_stalls;
      d.action = Action::kStall;  // cannot abort a descheduled transaction
      return d;
    }
    // Proceeding: any lazy readers collected above really do get doomed by
    // this access's invalidation, so their abort edges are recorded here
    // (the stalling paths drop the mask instead).
    d.invalidated_lazy_readers = s.lazy_readers;
    for (std::uint64_t m = d.invalidated_lazy_readers; m != 0; m &= m - 1) {
      [[maybe_unused]] const CoreId r =
          static_cast<CoreId>(std::countr_zero(m));
      SUVTM_OBS_HOOK(obs_, on_conflict_edge(core, r, line, txns[r]->site,
                                            AbortCause::kLazyInvalidated));
    }
    clear_wait(core);
    return d;
  }

  // Requester-wins policy: doom the holder (unless it is already
  // committing) and let the requester spin until the holder's isolation
  // clears -- the paper's "guarantee the execution of the requester".
  // Timestamp priority prevents mutual-doom livelock: only an OLDER
  // requester may kill the holder; younger ones fall back to stalling.
  if (requester_wins(self, *txns[holder])) {
    ++stats_.conflicts;
    ++stats_.requester_wins;
    d.holder = holder;
    d.victim = holder;
    d.victim_cause = AbortCause::kRequesterWins;
    SUVTM_OBS_HOOK(obs_,
                   on_conflict_edge(core, holder, line, txns[holder]->site,
                                    AbortCause::kRequesterWins));
    d.action = Action::kStall;  // stall until the doomed holder drains
    return d;
  }

  ++stats_.conflicts;
  if (!s.exact) ++stats_.false_conflicts;
  d.holder = holder;
  d.action = Action::kStall;

  // Non-transactional requesters just stall; they hold nothing, so they can
  // never be part of a cycle.
  const bool tx = self && self->active();
  if (tx) {
    // Record the wait-for edge, then look for a cycle: does the holder's
    // chain already reach us?
    waits_for_[core] = holder;
    if (reaches(holder, core)) {
      // Abort the youngest transaction in the cycle.
      ++stats_.deadlock_aborts;
      CoreId victim = core;
      std::uint64_t youngest = txns[core]->timestamp;
      for (CoreId cur = holder; cur != core; cur = waits_for_[cur]) {
        const Txn* t = txns[cur];
        // Committing transactions are past the point of no return.
        if (t && t->active() && t->state != TxnState::kCommitting &&
            t->timestamp > youngest) {
          youngest = t->timestamp;
          victim = cur;
        }
      }
      d.victim = victim;
      d.victim_cause = AbortCause::kDeadlockCycle;
      // Edge direction: the access that detected the cycle kills the victim;
      // when the victim is the requester itself, the holder it waited on is
      // the aborter.
      SUVTM_OBS_HOOK(obs_, on_conflict_edge(victim == core ? holder : core,
                                            victim, line, txns[victim]->site,
                                            AbortCause::kDeadlockCycle));
      if (victim == core) d.action = Action::kAbortSelf;
      waits_for_[victim] = kNoCore;
      return d;
    }
  }
  // A plain stall. Its retry repeats it until an input changes: see
  // park_holds() for the inputs and DESIGN.md section 3 for the triggers.
  if (parks_[core] != nullptr) {
    park(core, ParkMemo{line, lm, holder, is_write, requester_lazy, tx,
                        s.exact});
  }
  return d;
}

void ConflictManager::park(CoreId core, const ParkMemo& memo) {
  assert(!parked(core) && "a parked core's retries never reach check()");
  if (watch_cols_.empty()) watch_cols_.assign(col_bits_, 0);
  memo_[core] = memo;
  set_column_bits(watch_cols_, core, memo.mix);
  parked_mask_ |= 1ull << core;
  parks_[core]->park();
}

void ConflictManager::unpark(CoreId core) {
  const std::uint64_t bit = 1ull << core;
  if ((parked_mask_ & bit) == 0) return;
  parked_mask_ &= ~bit;
  parks_[core]->unpark();
  for_each_position(memo_[core].mix, col_k_, col_bits_,
                    [&](std::uint32_t idx) {
                      watch_cols_[idx] &= ~bit;
                      return true;
                    });
}

void ConflictManager::unpark_if(CoreId core, Relation rel) {
  for (std::uint64_t p = parked_mask_; p != 0; p &= p - 1) {
    const CoreId c = static_cast<CoreId>(std::countr_zero(p));
    const CoreId h = memo_[c].holder;
    if (rel == kAny || (rel == kHolderIs ? h == core : h >= core)) unpark(c);
  }
}

void ConflictManager::watch(CoreId core, LineAddr l, std::uint64_t m,
                            bool write) {
  std::uint64_t hit = 0;
  for_each_position(m, col_k_, col_bits_, [&](std::uint32_t idx) {
    hit |= watch_cols_[idx];
    return true;
  });
  for (hit &= parked_mask_; hit != 0; hit &= hit - 1) {
    const CoreId c = static_cast<CoreId>(std::countr_zero(hit));
    const ParkMemo& pm = memo_[c];
    // A core below the holder is scanned first: a new bit in its write
    // signature may make it the holder, and one in its read signature may
    // too when the parked access is an eager write. (A running lazy core's
    // read bits only ever add invalidated readers, which a stall drops.)
    const bool below =
        core < pm.holder && (write || (pm.is_write && !pm.requester_lazy));
    // The holder adding the parked line itself may make the NACK exact.
    const bool exact_flip = core == pm.holder && l == pm.line && !pm.exact;
    if (below || exact_flip) unpark(c);
  }
}

bool ConflictManager::park_holds(CoreId core,
                                 const std::vector<Txn*>& txns) const {
  const ParkMemo& pm = memo_[core];
  const Txn* self = txns[core];
  const bool tx = self && self->state == TxnState::kRunning;
  // The retry aborts a doomed requester before it checks anything.
  if (tx != pm.requester_tx || (tx && self->doomed) ||
      pm.requester_lazy != (tx && self->lazy)) {
    return false;
  }
  // Every other core, not just the column candidates: audit_signatures
  // proves the columns separately.
  const std::uint64_t all =
      txns.size() >= 64 ? ~0ull : (1ull << txns.size()) - 1;
  const Scan s = scan(pm.line, pm.is_write, pm.requester_lazy, txns, pm.mix,
                      all & ~(1ull << core));
  if (s.holder != pm.holder || s.exact != pm.exact) return false;
  if (requester_wins(self, *txns[pm.holder])) return false;
  // A transactional requester keeps its edge to the holder, and no cycle
  // runs back through it: every edge insertion breaks the cycle it closes.
  return !tx || (waits_for_[core] == pm.holder && !reaches(pm.holder, core));
}

void ConflictManager::clear_wait(CoreId core) { waits_for_[core] = kNoCore; }

}  // namespace suvtm::htm
