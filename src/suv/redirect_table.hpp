// Two-level redirect table (paper Sections III-IV, Table III).
//
// Ground truth is a global map of redirect entries ("the memory table": the
// software-managed structure holding swapped-out entries). Two hardware
// levels cache it for latency:
//   - per-core first-level table: 512 entries, fully associative,
//     zero-latency; a core's own transaction's transient entries are pinned
//     there (spilling them is the "redirect table overflow" of Table V),
//   - shared second-level table: 16K entries, 8-way, 10-cycle latency.
// A lookup that misses both levels *speculates with the original address*
// (paper Section IV-A); if the memory table actually held an entry the
// speculation is squashed at a fixed penalty.
//
// Every lookup is first filtered by the per-core redirect summary signature,
// so un-redirected addresses (the common case) pay nothing.
//
// Flip cost: a table serves one simulation domain, and only the domain's
// local cores run transactions, so only they can own entries. Every other
// core (another shard's, reading through remote loads) receives exactly the
// same summary updates -- every publish adds, every commit deletion
// removes, and nothing else touches it -- so those observer cores share one
// summary, which is bit-for-bit what each would hold. Each entry also
// carries a holder mask naming the first-level tables that hold its line,
// so a deletion clears those tables instead of all of them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/types.hpp"
#include "obs/obs.hpp"
#include "sim/config.hpp"
#include "suv/redirect_entry.hpp"
#include "suv/summary_signature.hpp"

namespace suvtm::suv {

struct TableStats {
  std::uint64_t lookups = 0;            // accesses that consulted the summary
  std::uint64_t summary_filtered = 0;   // summary said "not redirected"
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;          // summary hit but L1 table miss
  std::uint64_t l2_hits = 0;
  std::uint64_t mem_hits = 0;           // entry only in the memory table
  std::uint64_t misspeculations = 0;    // == mem_hits (squash + redo)
  std::uint64_t false_filter_hits = 0;  // summary hit, no entry anywhere
  std::uint64_t l1_overflow_entries = 0;  // transient entries spilled to L2
  std::uint64_t l2_evictions = 0;         // entries swapped to memory

  bool operator==(const TableStats&) const = default;

  double l1_miss_rate() const {
    const double looked = static_cast<double>(l1_hits + l1_misses);
    return looked == 0.0 ? 0.0 : static_cast<double>(l1_misses) / looked;
  }
};

/// Sum `b` into `a` (harvesting a sharded machine's per-domain tables).
inline void accumulate(TableStats& a, const TableStats& b) {
  a.lookups += b.lookups;
  a.summary_filtered += b.summary_filtered;
  a.l1_hits += b.l1_hits;
  a.l1_misses += b.l1_misses;
  a.l2_hits += b.l2_hits;
  a.mem_hits += b.mem_hits;
  a.misspeculations += b.misspeculations;
  a.false_filter_hits += b.false_filter_hits;
  a.l1_overflow_entries += b.l1_overflow_entries;
  a.l2_evictions += b.l2_evictions;
}

class RedirectTable {
 public:
  /// A table for `num_cores` cores, of which `local` may own entries.
  RedirectTable(const sim::SuvParams& p, std::uint32_t num_cores,
                CoreRange local);
  /// A table whose cores are all local (a monolithic machine).
  RedirectTable(const sim::SuvParams& p, std::uint32_t num_cores)
      : RedirectTable(p, num_cores, CoreRange{0, num_cores}) {}

  struct Lookup {
    const RedirectEntry* entry = nullptr;  // nullptr: not redirected
    /// Second-level probe cycles; hidden when the data access goes to the
    /// network anyway (the coherence reply piggybacks the redirection).
    Cycle probe = 0;
    /// Mis-speculation squash cycles (swapped-out entry found in the memory
    /// table); always on the critical path.
    Cycle squash = 0;
  };

  /// Timed lookup from `core` for `original` (summary filter included).
  Lookup lookup(CoreId core, LineAddr original);

  /// Untimed entry access (state flips, inspection, tests).
  RedirectEntry* find(LineAddr original);
  const RedirectEntry* find(LineAddr original) const;

  /// Install a fresh transient entry for `owner`'s transaction. Returns the
  /// table cycles charged (zero when it fits the pinned first level; the
  /// second-level latency when the first level overflowed). Also updates the
  /// owner's summary signature.
  Cycle insert_transient(const RedirectEntry& e);

  /// A global entry just toggled to a transient state (g1v1 -> g1v0): pin it
  /// in the owner's first-level table. Returns the table cycles charged
  /// (second-level latency if the first level is out of pinnable slots).
  Cycle pin_transient(CoreId owner, LineAddr original);

  /// Outcome of a commit/abort flash flip on one entry.
  struct FlipOutcome {
    bool deleted = false;   // entry removed from the table
    LineAddr target = 0;    // the entry's pool target line (for reclamation)
  };

  /// Apply the commit flash flip to `original`'s entry: g0v1 -> g1v1
  /// (publish: unpin + add to every other core's summary) or g1v0 -> g0v0
  /// (delete: retract from all summaries and erase).
  FlipOutcome commit_entry(LineAddr original);

  /// Apply the abort flash flip: g0v1 -> g0v0 (remove: retract from the
  /// owner's summary and erase) or g1v0 -> g1v1 (revert to global).
  FlipOutcome abort_entry(LineAddr original);

  /// Number of transient entries currently pinned for `core`.
  std::uint32_t pinned_count(CoreId core) const {
    return static_cast<std::uint32_t>(l1_[core].pinned.size());
  }
  std::uint32_t l1_capacity() const { return params_.l1_table_entries; }

  std::size_t total_entries() const { return entries_.size(); }
  const TableStats& stats() const { return stats_; }

  /// Observability wiring (forwarded from SuvVm::set_obs).
  void set_obs(obs::Recorder* r) { obs_ = r; }
  /// `core`'s summary signature (observer cores share one).
  const SummarySignature& summary(CoreId core) const {
    return summary_[summary_index(core)];
  }
  /// Mutable summary access for corruption-injection tests ONLY.
  SummarySignature& summary_mut(CoreId core) {
    return summary_[summary_index(core)];
  }

  // --- structural-audit inspection -----------------------------------------
  /// Visit every live redirect entry (ground truth, both hardware levels
  /// and the memory table) in ascending original-address order. The audits
  /// that consume this cap their violation reports, so a hash-order walk
  /// would let the FlatMap's hash/capacity policy pick which violations
  /// surface (suvlint: nondet-iteration). Audit-only; lookups never iterate.
  template <class Fn>
  void for_each_entry(Fn&& fn) const {
    std::vector<LineAddr> originals;
    originals.reserve(entries_.size());
    // lint: allow(nondet-iteration): order laundered by the sort below
    for (const auto& kv : entries_) originals.push_back(kv.first);
    std::sort(originals.begin(), originals.end());
    for (LineAddr o : originals) fn(entries_.find(o)->second.entry);
  }
  /// Holder mask of `original`'s live entry: bit c is set iff core c's
  /// first-level table holds the line, pinned or cached (0 if no entry).
  std::uint64_t holders(LineAddr original) const {
    auto it = entries_.find(original);
    return it == entries_.end() ? 0 : it->second.holders;
  }
  /// Mutable holder mask of a live entry, for corruption-injection tests
  /// ONLY.
  std::uint64_t& holders_mut(LineAddr original) {
    return slot(original)->holders;
  }
  /// Originals pinned in `core`'s first-level table (transient entries).
  const FlatSet<LineAddr>& pinned(CoreId core) const {
    return l1_[core].pinned;
  }
  /// Non-pinned originals cached in `core`'s first-level table (-> lru tick).
  const FlatMap<LineAddr, std::uint64_t>& l1_cached(CoreId core) const {
    return l1_[core].cached;
  }
  /// Visit every original cached in the shared second-level table.
  template <class Fn>
  void for_each_l2_way(Fn&& fn) const {
    for (const auto& s : l2_sets_) {
      for (const auto& w : s.ways) fn(w.first);
    }
  }

 private:
  struct L1Table {
    FlatMap<LineAddr, std::uint64_t> cached;  // line -> lru tick
    FlatSet<LineAddr> pinned;                 // transient entries
  };
  struct L2Set {
    std::vector<std::pair<LineAddr, std::uint64_t>> ways;  // line, lru tick
  };
  /// A ground-truth entry plus its holder mask (see holders()).
  struct Slot {
    RedirectEntry entry;
    std::uint64_t holders = 0;
  };

  Slot* slot(LineAddr original) {
    auto it = entries_.find(original);
    return it == entries_.end() ? nullptr : &it->second;
  }
  std::size_t summary_index(CoreId core) const {
    return local_.contains(core) ? core - local_.first : local_.count;
  }
  static std::uint64_t bit(CoreId core) { return 1ull << core; }

  /// Cache `s`'s line in `core`'s first-level table (LRU eviction to the
  /// second level when full).
  void l1_install(CoreId core, Slot& s);
  void l2_install(LineAddr l);
  /// Owner of `l`'s live entry, for spill attribution (kNoCore if global).
  CoreId entry_owner(LineAddr l) const {
    const RedirectEntry* e = find(l);
    return e ? e->owner : kNoCore;
  }
  bool l2_contains(LineAddr l) const;
  void l2_erase(LineAddr l);
  L2Set& l2_set(LineAddr l) { return l2_sets_[l % l2_sets_.size()]; }
  const L2Set& l2_set(LineAddr l) const { return l2_sets_[l % l2_sets_.size()]; }
  /// Remove line `l` from the first-level tables in `holders` and from
  /// the second level.
  void drop_from_caches(LineAddr l, std::uint64_t holders);

  sim::SuvParams params_;
  /// Ground truth. Entry pointers from find() are invalidated by
  /// insert_transient/commit_entry/abort_entry (open addressing moves
  /// slots); all call sites finish with a pointer before mutating.
  FlatMap<LineAddr, Slot> entries_;
  std::vector<L1Table> l1_;
  std::vector<L2Set> l2_sets_;
  CoreRange local_;
  std::uint32_t observers_ = 0;  // cores outside local_
  /// One summary per local core in core order, then (when observers_ > 0)
  /// the one summary every observer core shares.
  std::vector<SummarySignature> summary_;
  std::uint64_t tick_ = 0;
  TableStats stats_;
  obs::Recorder* obs_ = nullptr;
};

}  // namespace suvtm::suv
