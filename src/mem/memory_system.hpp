// Timing + functional memory hierarchy: per-core L1s, banked shared L2 with
// an integrated directory, MESI coherence, mesh NoC, per-core TLBs and the
// functional backing store.
//
// The timing model is "atomic-operation, computed-latency": each access
// updates global cache/directory state at issue time and returns the number
// of cycles the access takes, which the caller uses to schedule the
// requesting coroutine's resumption. This is the standard approximation for
// cycle-approximate simulators; it forgoes modelling in-flight coherence
// races, which the HTM layer's conflict detection makes unobservable to
// workloads anyway.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mem/backing_store.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/mesh.hpp"
#include "mem/tlb.hpp"
#include "obs/obs.hpp"
#include "sim/config.hpp"

namespace suvtm::mem {

struct AccessOutcome {
  Cycle latency = 0;
  bool l1_hit = false;
  bool l2_hit = false;
  /// An L1 line marked speculative (FasTM SM) was evicted by this fill.
  bool evicted_speculative = false;
  LineAddr evicted_line = 0;
};

struct MemStats {
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t forwards = 0;
  std::uint64_t l2_recalls = 0;
  std::uint64_t spec_evictions = 0;

  bool operator==(const MemStats&) const = default;
};

/// Sum `b` into `a` (harvesting a sharded machine's per-domain hierarchies).
inline void accumulate(MemStats& a, const MemStats& b) {
  a.l1_hits += b.l1_hits;
  a.l1_misses += b.l1_misses;
  a.l2_hits += b.l2_hits;
  a.l2_misses += b.l2_misses;
  a.writebacks += b.writebacks;
  a.invalidations += b.invalidations;
  a.forwards += b.forwards;
  a.l2_recalls += b.l2_recalls;
  a.spec_evictions += b.spec_evictions;
}

class MemorySystem {
 public:
  // Fixed latencies in cycles (paper Table III).
  static constexpr Cycle kL1Latency = 1;
  static constexpr Cycle kL2Latency = 15;
  static constexpr Cycle kDirectoryLatency = 6;
  static constexpr Cycle kMemoryLatency = 150;
  static constexpr std::uint32_t kTlbEntries = 64;  // per core

  explicit MemorySystem(const sim::MemParams& p);

  /// Timing access: moves the line into this core's L1 with load (GETS) or
  /// store (GETM) permission and returns the latency. `a` must already be
  /// the *final* physical address (any SUV redirection applied by caller).
  AccessOutcome access(CoreId core, Addr a, bool is_write);

  // Functional word access (no timing).
  std::uint64_t load_word(Addr a) const { return store_.load(a); }
  void store_word(Addr a, std::uint64_t v) { store_.store(a, v); }
  BackingStore& backing() { return store_; }

  /// Install `l` into `core`'s L1 in Modified state without a memory fetch:
  /// used when hardware materializes a line whose contents it already has
  /// (SUV's redirect-target allocation + in-cache line copy). Returns true
  /// if the fill evicted a speculative line (caller reports the overflow).
  bool install_line(CoreId core, LineAddr l);

  // --- FasTM speculative-line (SM bit) support -----------------------------
  /// Mark this core's cached copy of `l` speculative. Returns false if the
  /// line is not resident (caller must have just accessed it).
  ///
  /// Marked lines are also recorded in a per-core list so the flash
  /// commit/abort walks touch only the write set (tens of lines) instead of
  /// sweeping the whole L1 per transaction. Entries going stale (eviction,
  /// coherence invalidation) is fine: the walks re-check residency and the
  /// SM bit before acting.
  bool mark_speculative(CoreId core, LineAddr l);
  /// Flash-clear all SM bits (commit).
  void clear_speculative(CoreId core);
  /// Invalidate all SM lines (abort); they will demand-refetch.
  void invalidate_speculative(CoreId core);

  const MemStats& stats() const { return stats_; }
  const Mesh& mesh() const { return mesh_; }
  Cache& l1(CoreId core) { return l1_[core]; }
  const Cache& l1(CoreId core) const { return l1_[core]; }
  Cache& l2() { return l2_; }
  const Cache& l2() const { return l2_; }
  Directory& directory() { return dir_; }
  const Directory& directory() const { return dir_; }
  const BackingStore& backing() const { return store_; }
  /// Lines recorded as speculative for `core` (superset: may hold stale
  /// entries for lines since evicted; every line whose SM bit IS set must
  /// appear here -- the flash walks rely on it).
  const std::vector<LineAddr>& speculative_lines(CoreId core) const {
    return spec_lines_[core];
  }
  Tlb& tlb(CoreId core) { return tlb_[core]; }
  const sim::MemParams& params() const { return params_; }

  /// Observability wiring; called once by the Simulator when recording is on.
  void set_obs(obs::Recorder* r) { obs_ = r; }

 private:
  Cycle fetch_from_l2_or_memory(LineAddr l);
  void l1_eviction(CoreId core, const Cache::Victim& v);
  /// Insert into the L2 and, if that evicted a line with L1 copies, recall
  /// them (invalidate + directory reset). Returns true if a recall happened.
  /// Every L2 fill must go through here: inserting without the recall
  /// leaves L1 lines the inclusive L2 no longer backs.
  bool l2_insert_with_recall(LineAddr l, CohState st);

  sim::MemParams params_;
  Mesh mesh_;
  std::vector<Cache> l1_;
  Cache l2_;
  Directory dir_;
  std::vector<Tlb> tlb_;
  BackingStore store_;
  MemStats stats_;
  obs::Recorder* obs_ = nullptr;
  /// Per-core lines with the SM bit set (may hold stale entries for lines
  /// since evicted or invalidated; cleared by the flash walks).
  std::vector<std::vector<LineAddr>> spec_lines_;
};

}  // namespace suvtm::mem
