#include "check/history.hpp"

#include <algorithm>
#include <cassert>
#include <cinttypes>

#include "check/format.hpp"

namespace suvtm::check {

HistoryOracle::HistoryOracle(std::uint32_t num_cores, bool reference)
    : staged_(num_cores), parked_(num_cores), reference_(reference) {}

void HistoryOracle::on_begin(CoreId c, Cycle now) {
  Staged& s = staged_[c];
  if (s.active) {
    violation(format("core %u: begin while a transaction is already staged", c));
    if (s.committing) --committing_count_;
  }
  s.active = true;
  s.committing = false;
  s.begin_cycle = now;
  s.commit_start = 0;
  s.run_line = kNoLine;
  s.recs.clear(pool_);
  s.runs.clear();
  s.frame_marks.clear();
}

void HistoryOracle::on_frame_push(CoreId c) {
  Staged& s = staged_[c];
  s.frame_marks.push_back(
      {s.recs.size(), static_cast<std::uint32_t>(s.runs.size())});
}

void HistoryOracle::on_frame_pop(CoreId c) {
  Staged& s = staged_[c];
  if (s.frame_marks.empty()) {
    violation(format("core %u: frame pop without a pushed frame", c));
    return;
  }
  // Merge into the parent: the inner frame's accesses stay staged.
  s.frame_marks.pop_back();
}

void HistoryOracle::on_frame_rollback(CoreId c) {
  Staged& s = staged_[c];
  if (s.frame_marks.empty()) {
    violation(format("core %u: frame rollback without a pushed frame", c));
    return;
  }
  // The inner frame's version-state was undone, so its accesses vanish from
  // the committed history (and must not seed conflict-direction checks):
  // both the record stream and the touch-run stream roll back to the mark.
  // The open access run is closed too -- its head may have been expunged,
  // so a later same-line access must start a fresh run to keep its
  // first-touch time.
  s.recs.truncate(pool_, s.frame_marks.back().recs);
  s.runs.resize(s.frame_marks.back().runs);
  s.run_line = kNoLine;
}

void HistoryOracle::record_slow(CoreId c, bool in_tx, Addr word,
                                std::uint64_t value, bool is_write,
                                Cycle now) {
  assert((word & (kWordBytes - 1)) == 0);
  if (in_tx) {
    Staged& s = staged_[c];
    if (!s.active) {
      violation(format("core %u: transactional access without begin", c));
      return;
    }
    // try_append found the tail page full (or absent): chain a fresh one.
    // (The touch run was already noted by on_access.)
    s.recs.append_new_page(pool_, AccessRec::make(word, value, now, is_write));
    return;
  }
  // Non-transactional accesses are singleton transactions serialized at
  // their own (isolation-checked) issue cycle. Cycles arrive monotonically,
  // so the FIFO is key-sorted by construction.
  nontx_q_.push_back(AccessRec::make(word, value, now, is_write));
  if (reference_) return;
  // Only previously queued work can be behind the horizon (this access's
  // own key equals the no-committer horizon), so drain only when something
  // is actually due.
  const std::uint64_t k = make_key(now, /*lazy=*/false);
  if ((nontx_head_ < nontx_q_.size() &&
       make_key(nontx_q_[nontx_head_].cycle, false) < k) ||
      (!pending_txns_.empty() && pending_txns_.front().key < k)) {
    drain(now);
  }
}

void HistoryOracle::on_commit_start(CoreId c, Cycle now) {
  Staged& s = staged_[c];
  if (!s.active) {
    violation(format("core %u: commit start without begin", c));
    return;
  }
  if (!s.committing) ++committing_count_;
  s.committing = true;
  s.commit_start = now;
}

void HistoryOracle::on_commit_done(CoreId c, Cycle now, bool lazy) {
  Staged& s = staged_[c];
  if (!s.active || !s.committing) {
    violation(format("core %u: commit done without commit start", c));
    return;
  }
  seal(c, now, lazy);
  s.active = false;
  s.committing = false;
  --committing_count_;
  drain(now);
}

void HistoryOracle::on_abort_done(CoreId c) {
  // Aborted attempts leave no trace in the committed history; the version
  // manager's restore work is validated by the final-state comparison.
  Staged& s = staged_[c];
  if (s.committing) --committing_count_;
  s.active = false;
  s.committing = false;
  s.run_line = kNoLine;
  s.recs.clear(pool_);
  s.runs.clear();
  s.frame_marks.clear();
}

void HistoryOracle::on_suspend(CoreId c) {
  // The horizon only scans staged_ (parity with resume restoring the
  // count): a parked committer rejoins the committing census on resume.
  if (staged_[c].committing) --committing_count_;
  parked_[c].push_back(std::move(staged_[c]));
  staged_[c] = Staged{};
}

void HistoryOracle::on_resume(CoreId c) {
  if (parked_[c].empty()) {
    violation(format("core %u: resume without a suspended transaction", c));
    return;
  }
  if (staged_[c].active) {
    violation(format("core %u: resume while another transaction is staged", c));
    if (staged_[c].committing) --committing_count_;
  }
  staged_[c] = std::move(parked_[c].front());
  parked_[c].erase(parked_[c].begin());
  if (staged_[c].committing) ++committing_count_;
}

void HistoryOracle::seal(CoreId c, Cycle now, bool lazy) {
  Staged& s = staged_[c];
  const std::uint64_t key =
      lazy ? make_key(now, true) : make_key(s.commit_start, false);
  const std::uint64_t seq = seal_seq_++;
  ++commit_seq_;

  SealedWindow w;
  w.key = key;
  w.seq = seq;
  w.begin_cycle = s.begin_cycle;
  w.lazy = lazy;
  // Recycle a pruned window's touch capacity instead of allocating.
  if (!touch_pool_.empty()) {
    w.touches = std::move(touch_pool_.back());
    touch_pool_.pop_back();
    w.touches.clear();
  }
  // The recording hook run-compressed the touch stream as it recorded
  // (one entry per maximal same-line same-kind access run, stamped with
  // the run's first cycle), so summarizing a footprint is one pass over
  // the short run stream -- the full record stream is never re-walked; it
  // goes straight to replay. Runs arrive in access order, so min-merging
  // per line recovers exact first-touch times. A lazy transaction's
  // writes only become visible at publish, so that is their effective
  // conflict time regardless of when they were issued (buffered or
  // SUV-redirected, they were invisible until now).
  WinSig sig;
  for (const TouchRun& r : s.runs) {
    auto it = std::lower_bound(
        w.touches.begin(), w.touches.end(), r.line,
        [](const TouchRec& t, LineAddr l) { return t.line < l; });
    if (it == w.touches.end() || it->line != r.line) {
      it = w.touches.insert(it, {r.line, kNever, kNever});
      sig.rw.add(r.line);
    }
    if (r.is_write) {
      const Cycle eff = lazy ? now : r.cycle;
      if (eff < it->write) it->write = eff;
      sig.wr.add(r.line);
    } else {
      if (r.cycle < it->read) it->read = r.cycle;
    }
  }
  s.runs.clear();
  s.run_line = kNoLine;

  if (!w.touches.empty()) {
    check_window_conflicts(w, sig);
    window_sig_union_.rw.merge(sig.rw);
    window_sig_union_.wr.merge(sig.wr);
    window_.push_back(std::move(w));
    window_release_.push_back(now);  // isolation drops when commit completes
    window_sigs_.push_back(sig);
    // Pruning exists to bound memory, not for correctness: the binary
    // search in check_window_conflicts already skips released-before-begin
    // windows, so compaction can wait until the list is worth compacting.
    if (window_.size() >= 64) prune_window(now);
  } else if (w.touches.capacity() != 0) {
    // Touch-free transaction (every frame rolled back): it can never
    // conflict, so no window is retained.
    touch_pool_.push_back(std::move(w.touches));
  }

  // Queue the accesses for serialization-order replay. Keys can arrive out
  // of order (an eager transaction seals at commit *done* but serializes at
  // commit *start*), so insert in sorted position from the back.
  PendingTxn p{key, seq, std::move(s.recs)};
  auto it = pending_txns_.end();
  while (it != pending_txns_.begin()) {
    auto prev = std::prev(it);
    if (prev->key < p.key || (prev->key == p.key && prev->seq < p.seq)) break;
    it = prev;
  }
  pending_txns_.insert(it, std::move(p));
}

void HistoryOracle::check_window_conflicts(const SealedWindow& b,
                                           const WinSig& b_sig) {
  // No window wrote a line b touched, and b wrote no line any window
  // touched: no pair can carry a conflict, skip the scan outright.
  if (!window_sig_union_.conflicts(b_sig)) return;
  // Windows are appended in release order (simulated time is nondecreasing
  // across seals) and prune_window compacts in place, so window_release_
  // stays sorted: binary-search past everything that released before b
  // began instead of skipping it one compare at a time.
  const std::size_t first = static_cast<std::size_t>(
      std::upper_bound(window_release_.begin(), window_release_.end(),
                       b.begin_cycle) -
      window_release_.begin());
  for (std::size_t i = first; i < window_.size(); ++i) {
    // A violating line must be written by one side and touched by the
    // other; read-only sharing never pays the merge.
    if (!window_sigs_[i].conflicts(b_sig)) continue;
    check_window_pair(window_[i], b);
  }
}

void HistoryOracle::check_window_pair(const SealedWindow& a,
                                      const SealedWindow& b) {
  const bool a_first = a.key < b.key || (a.key == b.key && a.seq < b.seq);
  const SealedWindow& f = a_first ? a : b;
  const SealedWindow& sw = a_first ? b : a;
  // Merge the line-sorted touch lists.
  std::size_t i = 0, j = 0;
  while (i < f.touches.size() && j < sw.touches.size()) {
    const TouchRec& ft = f.touches[i];
    const TouchRec& st = sw.touches[j];
    if (ft.line < st.line) {
      ++i;
    } else if (st.line < ft.line) {
      ++j;
    } else {
      // Every conflicting access pair must run in serialization order;
      // ties are unorientable within a cycle and are skipped.
      if (ft.write != kNever && st.write != kNever && st.write < ft.write) {
        violation(format("conflict order: line %#" PRIx64
                         " w-w: txn seq %" PRIu64 " (key %" PRIu64
                         ") wrote at %" PRIu64 " after txn seq %" PRIu64
                         " (key %" PRIu64 ") wrote at %" PRIu64
                         " despite serializing first",
                         addr_of_line(ft.line), f.seq, f.key, ft.write,
                         sw.seq, sw.key, st.write));
      }
      if (ft.write != kNever && st.read != kNever && st.read < ft.write) {
        violation(format("conflict order: line %#" PRIx64
                         " w-r: txn seq %" PRIu64 " (key %" PRIu64
                         ") read at %" PRIu64 " before txn seq %" PRIu64
                         " (key %" PRIu64 ") wrote at %" PRIu64
                         " despite serializing after it",
                         addr_of_line(ft.line), sw.seq, sw.key, st.read,
                         f.seq, f.key, ft.write));
      }
      if (ft.read != kNever && st.write != kNever && st.write < ft.read) {
        violation(format("conflict order: line %#" PRIx64
                         " r-w: txn seq %" PRIu64 " (key %" PRIu64
                         ") wrote at %" PRIu64 " before txn seq %" PRIu64
                         " (key %" PRIu64 ") read at %" PRIu64
                         " despite serializing after it",
                         addr_of_line(ft.line), sw.seq, sw.key, st.write,
                         f.seq, f.key, ft.read));
      }
      ++i;
      ++j;
    }
  }
}

void HistoryOracle::prune_window(Cycle now) {
  // A sealed window can only conflict-overlap transactions that began
  // before it released. Once every live (staged or parked) transaction
  // began at or after its release -- and any future one begins at >= now --
  // it can never be paired again. (Reference mode retains everything; the
  // disjointness test in check_window_conflicts makes that verdict-neutral.)
  if (reference_) return;
  Cycle min_begin = now;
  for (const Staged& s : staged_) {
    if (s.active) min_begin = std::min(min_begin, s.begin_cycle);
  }
  for (const auto& q : parked_) {
    for (const Staged& s : q) {
      if (s.active) min_begin = std::min(min_begin, s.begin_cycle);
    }
  }
  std::size_t out = 0;
  window_sig_union_.rw.clear();
  window_sig_union_.wr.clear();
  for (std::size_t i = 0; i < window_.size(); ++i) {
    if (window_release_[i] > min_begin) {
      window_sig_union_.rw.merge(window_sigs_[i].rw);
      window_sig_union_.wr.merge(window_sigs_[i].wr);
      if (out != i) {
        window_[out] = std::move(window_[i]);
        window_release_[out] = window_release_[i];
        window_sigs_[out] = window_sigs_[i];
      }
      ++out;
    } else if (window_[i].touches.capacity() != 0) {
      touch_pool_.push_back(std::move(window_[i].touches));
    }
  }
  window_.resize(out);
  window_release_.resize(out);
  window_sigs_.resize(out);
}

std::uint64_t HistoryOracle::horizon(Cycle now) const {
  // Nothing sealing in the future can serialize before `now` except an
  // eager transaction already inside its commit window, which will seal
  // with key 2*commit_start. (We cannot tell lazy committers apart until
  // they seal, so treat every committer conservatively as eager.)
  std::uint64_t h = make_key(now, false);
  if (committing_count_ != 0) {
    for (const Staged& s : staged_) {
      if (s.active && s.committing) {
        h = std::min(h, make_key(s.commit_start, false));
      }
    }
  }
  return h;
}

void HistoryOracle::drain(Cycle now) {
  if (reference_) return;
  const std::uint64_t h = horizon(now);
  for (;;) {
    const bool have_t = !pending_txns_.empty() && pending_txns_.front().key < h;
    const bool have_n =
        nontx_head_ < nontx_q_.size() &&
        make_key(nontx_q_[nontx_head_].cycle, false) < h;
    if (!have_t && !have_n) break;
    // At equal keys the transaction replays first: a conflicting
    // non-transactional access admitted in the same cycle had to wait for
    // the transaction's isolation release.
    if (have_t &&
        (!have_n || pending_txns_.front().key <=
                        make_key(nontx_q_[nontx_head_].cycle, false))) {
      replay_txn(pending_txns_.front().recs);
      pending_txns_.pop_front();
    } else {
      replay_one(nontx_q_[nontx_head_++]);
    }
  }
  if (nontx_head_ == nontx_q_.size()) {
    nontx_q_.clear();
    nontx_head_ = 0;
  } else if (nontx_head_ > 4096 && nontx_head_ > nontx_q_.size() / 2) {
    nontx_q_.erase(nontx_q_.begin(),
                   nontx_q_.begin() + static_cast<std::ptrdiff_t>(nontx_head_));
    nontx_head_ = 0;
  }
}

void HistoryOracle::drain_all() {
  for (;;) {
    const bool have_t = !pending_txns_.empty();
    const bool have_n = nontx_head_ < nontx_q_.size();
    if (!have_t && !have_n) break;
    if (have_t &&
        (!have_n || pending_txns_.front().key <=
                        make_key(nontx_q_[nontx_head_].cycle, false))) {
      replay_txn(pending_txns_.front().recs);
      pending_txns_.pop_front();
    } else {
      replay_one(nontx_q_[nontx_head_++]);
    }
  }
  nontx_q_.clear();
  nontx_head_ = 0;
}

void HistoryOracle::replay_one(const AccessRec& a) {
  ++replayed_;
  if (a.is_write()) {
    shadow_.store(a.word(), a.value);
    return;
  }
  std::uint64_t expect;
  if (!shadow_.read_check(a.word(), a.value, &expect)) {
    violation(format("replay: read of %#" PRIx64 " observed %#" PRIx64
                     " but the serial history holds %#" PRIx64,
                     a.word(), a.value, expect));
  }
}

void HistoryOracle::replay_txn(RecStream& recs) {
  // A transaction's writes apply to the model in access order: a later
  // in-transaction read of its own store then checks against that store,
  // and no other transaction's accesses can interleave (the whole stream
  // replays at one serialization point). Pages retire to the pool as the
  // replay passes them.
  recs.consume(pool_, [this](const AccessRec& a) { replay_one(a); });
}

void HistoryOracle::finish() {
  for (CoreId c = 0; c < staged_.size(); ++c) {
    if (staged_[c].active) {
      violation(format("core %u: transaction still active at end of run", c));
    }
    if (!parked_[c].empty()) {
      violation(format("core %u: transaction still suspended at end of run", c));
    }
  }
  drain_all();
  window_.clear();
  window_release_.clear();
  window_sigs_.clear();
  window_sig_union_.rw.clear();
  window_sig_union_.wr.clear();
}

void HistoryOracle::final_image_mismatch(Addr w, std::uint64_t actual,
                                         std::uint64_t expect) {
  violation(format("final state: word %#" PRIx64 " is %#" PRIx64
                   " but serial replay yields %#" PRIx64,
                   w, actual, expect));
}

FlatMap<Addr, std::uint64_t> HistoryOracle::replay_image() const {
  FlatMap<Addr, std::uint64_t> img;
  shadow_.for_each_defined_sorted(
      [&](Addr w, std::uint64_t v, bool /*written*/) { img.emplace(w, v); });
  return img;
}

void HistoryOracle::violation(std::string msg) {
  // Cap the report; one broken invariant tends to cascade.
  if (violations_.size() < 64) violations_.push_back(std::move(msg));
}

}  // namespace suvtm::check
