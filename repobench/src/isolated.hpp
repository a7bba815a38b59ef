// Isolated unit costs of the simulator's layer entry points, driven directly
// from the benchmark with call streams shaped by a workload's measured
// counts. Each returns host ns per call (median of three timed repetitions).
// They miss the cache interference of the full simulator, so the busy
// fractions built from them are estimates.
#pragma once

#include <cstdint>

#include "sim/config.hpp"

namespace repobench {

/// Stream shape, taken from a workload's reference pass.
struct Shape {
  suvtm::sim::SimConfig cfg;  ///< geometry: cores, signatures, SUV tables
  std::uint32_t chains = 16;  ///< live event chains per scheduler
  double mean_gap = 8.0;      ///< cycles between one chain's events
  double write_frac = 0.3;    ///< stores / (loads + stores)
  double l1_miss_rate = 0.05;
  double l2_miss_rate = 0.1;
  double live_txns = 4.0;     ///< transactions holding isolation, on average
  double read_lines = 8.0;    ///< read-set lines per attempt
  double write_lines = 4.0;   ///< write-set lines per attempt
  double nack_frac = 0.01;    ///< NACKs per conflict check
  double live_entries = 64.0; ///< redirect entries alive
  double lookup_hit_frac = 0.1;  ///< lookups the summary passes on
  double table_l1_miss_rate = 0.2;  ///< redirect-table first-level misses
  std::uint64_t seed = 1;
};

/// sim::Scheduler::at + run, per dispatched event.
double sched_ns_per_event(const Shape& s);
/// mem::MemorySystem::access, per access.
double mem_ns_per_access(const Shape& s);
/// htm::ConflictManager::check, per check.
double conflict_ns_per_check(const Shape& s);
/// suv::RedirectTable::lookup, per lookup.
double suv_ns_per_lookup(const Shape& s);

}  // namespace repobench
