// History oracle: records every committed access the simulator performs and
// proves the run serializable (src/check's half of the paper's correctness
// contract; the structural audits in audit.hpp are the other half).
//
// Two independent proofs over one recorded history:
//
//  1. Serial replay (view equality). Every transaction's word-granularity
//     reads and writes are replayed in *serialization order* against a
//     model memory. Each replayed read must return exactly the value the
//     simulated core observed, and at end of run the model memory must
//     equal the simulator's resolved backing store word for word. This
//     proves the committed history view-equivalent to a serial one.
//
//  2. Conflict ordering (conflict serializability). For every pair of
//     committed transactions whose isolation windows overlapped, every
//     conflicting line access pair (r-w, w-r, w-w) must be ordered the same
//     way the serialization order is -- i.e. all conflict-graph edges point
//     forward, so the graph is acyclic by construction.
//
// Serialization order: eager transactions serialize at COMMIT START (their
// in-place writes and all reads precede it; isolation covers the rest of
// the commit window), lazy (DynTM) transactions at COMMIT DONE (their
// buffered/redirected writes publish there). This distinction matters: a
// lazy committer that exhausts its bounded commit wait may publish while an
// eager reader is still paying its commit latency, and that history is
// serializable only with the eager transaction ordered first. A lazy
// transaction's effective write time is likewise its publish cycle.
//
// The oracle is streaming: sealed transactions replay as soon as no
// earlier-serializing transaction can still be in flight, and their arena
// pages return to the pool page-by-page as the replay passes them, so
// memory is bounded by the run's data footprint plus the live-transaction
// window -- not by history length. Recording is a bump-pointer append into
// a pooled RecStream (arena.hpp); the model memory is a page-granular
// ShadowStore so a replayed access is a load and a compare.
//
// Reference mode (cfg.check.reference) disables both the streaming drain
// and the window pruning: the whole history is retained and replayed only
// at finalize(). It exists purely as the differential-testing baseline the
// equivalence suite compares the incremental oracle against; verdicts are
// identical by construction (pruned windows are provably disjoint from
// every later window, and drain order equals finalize order).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "check/arena.hpp"
#include "common/flat_hash.hpp"
#include "common/types.hpp"

namespace suvtm::check {

class HistoryOracle {
 public:
  explicit HistoryOracle(std::uint32_t num_cores, bool reference = false);

  // ---- recording hooks (driven by check::Checker) --------------------------
  void on_begin(CoreId c, Cycle now);
  void on_frame_push(CoreId c);
  void on_frame_pop(CoreId c);
  /// Inner frame partially aborted: its accesses are expunged (their
  /// version-state was rolled back), its isolation footprint remains.
  void on_frame_rollback(CoreId c);
  /// Hot path: one bump-pointer append for an in-flight transactional
  /// access, plus a compare against the open access run (same line, same
  /// kind) that keeps the per-transaction touch stream run-compressed as
  /// it is recorded -- seal() then summarizes the (short) run stream
  /// instead of re-walking every record. Everything else (page overflow,
  /// non-transactional accesses, protocol violations) drops out of line.
  void on_read(CoreId c, bool in_tx, Addr word, std::uint64_t value,
               Cycle now) {
    on_access(c, in_tx, word, value, now, /*is_write=*/false);
  }
  void on_write(CoreId c, bool in_tx, Addr word, std::uint64_t value,
                Cycle now) {
    on_access(c, in_tx, word, value, now, /*is_write=*/true);
  }
  void on_commit_start(CoreId c, Cycle now);
  /// Outermost commit completed; the transaction's effects are published.
  void on_commit_done(CoreId c, Cycle now, bool lazy);
  void on_abort_done(CoreId c);
  void on_suspend(CoreId c);
  void on_resume(CoreId c);

  /// Drain every pending record and flag transactions still open or
  /// suspended. Violations found at any stage accumulate in violations().
  void finish();

  /// Compare the replayed model memory against the simulator, one page
  /// at a time: `final_words(page_id, replay_page)` returns the page's
  /// final 512 words as the simulator resolves them (following live
  /// redirections), valid until the next call. Only the replay's defined
  /// words are compared. Pages and words are visited in ascending order,
  /// so the capped report keeps the lowest addresses.
  template <class PageWords>
  void check_final_image(PageWords&& final_words) {
    shadow_.for_each_page_sorted(
        [&](std::uint64_t id, const ShadowStore::Page& p) {
          const std::uint64_t* now = final_words(id, p);
          for (std::uint32_t k = 0; k < ShadowStore::kWords / 64; ++k) {
            std::uint64_t diff =
                ShadowStore::differing(p.val + k * 64, now + k * 64) &
                p.defined[k];
            for (; diff != 0; diff &= diff - 1) {
              const std::uint32_t i =
                  k * 64 + static_cast<std::uint32_t>(std::countr_zero(diff));
              final_image_mismatch(id * kPageBytes + i * kWordBytes, now[i],
                                   p.val[i]);
            }
          }
        });
  }

  /// finish(), then check_final_image() with each defined word read
  /// through `resolved_load` (which must follow live redirections). The
  /// Checker calls the two halves itself with a page-at-a-time reader;
  /// this type-erased entry point serves tests and reference comparisons.
  // lint: allow(std-function): once-per-run entry point, not a sim path
  void finalize(const std::function<std::uint64_t(Addr)>& resolved_load) {
    finish();
    if (!resolved_load) return;
    std::array<std::uint64_t, ShadowStore::kWords> words{};
    check_final_image([&](std::uint64_t id, const ShadowStore::Page& p) {
      for (std::uint32_t i = 0; i < ShadowStore::kWords; ++i) {
        if ((p.defined[i >> 6] >> (i & 63) & 1) != 0) {
          words[i] = resolved_load(id * kPageBytes + i * kWordBytes);
        }
      }
      return words.data();
    });
  }

  std::uint64_t committed_txns() const { return commit_seq_; }
  std::uint64_t replayed_accesses() const { return replayed_; }
  const std::vector<std::string>& violations() const { return violations_; }
  /// Model memory after finalize(), materialized as a word -> value table:
  /// the serial-replay value of every word any committed access touched.
  FlatMap<Addr, std::uint64_t> replay_image() const;
  /// Page-granular view of the replay image's written bits (nullptr when
  /// the page saw no replayed access); lets the checker's image sweep test
  /// a whole page's words without per-word map probes.
  const ShadowStore::Page* replay_page(std::uint64_t page_id) const {
    return shadow_.page(page_id);
  }
  /// Arena pages ever allocated: with streaming retirement this is bounded
  /// by the live-transaction window, not by history length.
  std::size_t arena_pages() const { return pool_.pages_allocated(); }

 private:
  static constexpr Cycle kNever = ~Cycle{0};
  static constexpr LineAddr kNoLine = ~LineAddr{0};

  struct TouchRec {
    LineAddr line;
    Cycle read;   ///< first-read cycle (kNever if never read)
    Cycle write;  ///< first-write cycle; publish cycle for lazy txns
  };

  /// One maximal run of same-line same-kind accesses, recorded at its
  /// first access. The stream preserves access order, so seal() recovers
  /// exact first-touch times by min-merging runs per line.
  struct TouchRun {
    LineAddr line;
    Cycle cycle;
    bool is_write;
  };

  struct FrameMark {
    std::uint64_t recs;
    std::uint32_t runs;
  };

  /// An in-flight (or suspended) transaction's recorded state.
  struct Staged {
    bool active = false;
    bool committing = false;
    bool run_write = false;       // kind of the open access run
    Cycle begin_cycle = 0;
    Cycle commit_start = 0;
    LineAddr run_line = kNoLine;  // line of the open access run
    RecStream recs;
    std::vector<TouchRun> runs;   // run-compressed touch stream
    std::vector<FrameMark> frame_marks;
  };

  /// Sealed accesses awaiting replay (kept until the serialization horizon
  /// passes their key).
  struct PendingTxn {
    std::uint64_t key;
    std::uint64_t seq;
    RecStream recs;
  };

  /// Footprint summary: a 512-bit one-hash Bloom filter over touched
  /// lines. Two windows whose summaries do not intersect provably share no
  /// line, so the pairing loop skips their touch-list merge entirely. The
  /// width matters: typical footprints run tens of lines, which saturates
  /// a single word but keeps a 512-bit filter's pairwise false-positive
  /// rate low enough that most overlapping pairs skip the merge.
  struct LineSig {
    std::array<std::uint64_t, 8> w{};
    static std::uint64_t hash(LineAddr line) {
      return (line * 0x9E3779B97F4A7C15ull) >> 55;
    }
    void add(LineAddr line) {
      const std::uint64_t h = hash(line);
      w[(h >> 6) & 7] |= 1ull << (h & 63);
    }
    bool test(LineAddr line) const {
      const std::uint64_t h = hash(line);
      return (w[(h >> 6) & 7] >> (h & 63) & 1) != 0;
    }
    bool intersects(const LineSig& o) const {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < 8; ++i) acc |= w[i] & o.w[i];
      return acc != 0;
    }
    void merge(const LineSig& o) {
      for (std::size_t i = 0; i < 8; ++i) w[i] |= o.w[i];
    }
    void clear() { w.fill(0); }
  };

  /// Read/write footprint summary of one window. A pair of windows can
  /// only carry a conflict-ordering violation on a line one of them WROTE,
  /// so the pair filter is (a.wr n b.rw) | (a.rw n b.wr): lines shared
  /// read-only -- the overwhelmingly common kind of sharing -- never pay a
  /// touch-list merge.
  struct WinSig {
    LineSig rw;  ///< every touched line
    LineSig wr;  ///< written lines only
    bool conflicts(const WinSig& o) const {
      return wr.intersects(o.rw) || rw.intersects(o.wr);
    }
  };

  /// Sealed conflict footprint retained while a live transaction's window
  /// can still overlap it. `touches` is sorted by line and unique (one
  /// entry per line with its first-touch times). The release cycle and
  /// footprint signatures live in the parallel window_release_/window_sigs_
  /// arrays so the pairing scan reads contiguous memory.
  struct SealedWindow {
    std::uint64_t key;
    std::uint64_t seq;
    Cycle begin_cycle;
    bool lazy;
    std::vector<TouchRec> touches;
  };

  /// Serialization key: cycle-ordered, eager-before-lazy at equal cycles.
  static std::uint64_t make_key(Cycle cycle, bool lazy) {
    return (static_cast<std::uint64_t>(cycle) << 1) | (lazy ? 1u : 0u);
  }

  void on_access(CoreId c, bool in_tx, Addr word, std::uint64_t value,
                 Cycle now, bool is_write) {
    Staged& s = staged_[c];
    if (in_tx && s.active) [[likely]] {
      const LineAddr line = line_of(word);
      if (line != s.run_line || is_write != s.run_write) {
        s.run_line = line;
        s.run_write = is_write;
        s.runs.push_back({line, now, is_write});
      }
      if (s.recs.try_append(AccessRec::make(word, value, now, is_write)))
          [[likely]] {
        return;
      }
    }
    record_slow(c, in_tx, word, value, is_write, now);
  }
  void record_slow(CoreId c, bool in_tx, Addr word, std::uint64_t value,
                   bool is_write, Cycle now);
  void seal(CoreId c, Cycle now, bool lazy);
  void check_window_conflicts(const SealedWindow& b, const WinSig& b_sig);
  void check_window_pair(const SealedWindow& a, const SealedWindow& b);
  void prune_window(Cycle now);
  /// Replay every pending record whose key is below the safe horizon.
  void drain(Cycle now);
  void drain_all();
  void replay_txn(RecStream& recs);
  void replay_one(const AccessRec& a);
  std::uint64_t horizon(Cycle now) const;
  void violation(std::string msg);
  void final_image_mismatch(Addr w, std::uint64_t actual,
                            std::uint64_t expect);

  ArenaPool pool_;
  std::vector<Staged> staged_;                    // by core
  std::vector<std::vector<Staged>> parked_;       // suspended, FIFO per core
  std::deque<PendingTxn> pending_txns_;           // sorted by (key, seq)
  std::vector<AccessRec> nontx_q_;                // cycle-ordered FIFO ...
  std::size_t nontx_head_ = 0;                    // ... consumed from here
  std::vector<SealedWindow> window_;
  std::vector<Cycle> window_release_;             // parallel: release cycles
  std::vector<WinSig> window_sigs_;               // parallel: footprint sigs
  WinSig window_sig_union_;                       // OR of window_sigs_
  std::vector<std::vector<TouchRec>> touch_pool_; // capacity from pruned windows
  ShadowStore shadow_;                            // model memory
  std::uint32_t committing_count_ = 0;            // committing among staged_
  std::uint64_t commit_seq_ = 0;
  std::uint64_t seal_seq_ = 0;
  std::uint64_t replayed_ = 0;
  bool reference_ = false;
  std::vector<std::string> violations_;
};

}  // namespace suvtm::check
