// Simulation configuration. Defaults reproduce the paper's Table III.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace suvtm::sim {

/// Which version-management scheme the HTM runs. The paper's comparison set.
enum class Scheme {
  kLogTmSe,    ///< undo log, in-place update, software abort walk
  kFasTm,      ///< new values in L1, fast abort, degenerates on overflow
  kSuv,        ///< single-update redirection (this paper's contribution)
  kDynTm,      ///< history-selected eager/lazy, FasTM version management
  kDynTmSuv,   ///< DynTM with SUV as its version-management scheme
};

/// One row of the scheme table: the single source of truth for how a scheme
/// is spelled everywhere (reports, traces, CLI flags, equivalence output).
struct SchemeInfo {
  Scheme scheme;
  const char* name;      ///< display name, e.g. "SUV-TM"
  const char* cli_name;  ///< flag-friendly spelling, e.g. "suv"
};

/// All schemes, in enum order (defined next to the factory in vm/factory.cpp
/// so adding a scheme touches exactly one file).
const std::vector<SchemeInfo>& scheme_table();
const std::vector<Scheme>& all_schemes();
const char* scheme_name(Scheme s);
const char* scheme_cli_name(Scheme s);
/// Accepts either spelling from the table (case-sensitive). Throws
/// std::invalid_argument listing the valid names on an unknown one.
Scheme scheme_from_string(std::string_view s);

/// Memory-hierarchy geometry (paper Table III). The fixed latencies live
/// next to the code that charges them (mem::MemorySystem, mem::Mesh,
/// mem::Tlb).
struct MemParams {
  std::uint32_t num_cores = 16;        // 4x4 mesh
  std::uint32_t mesh_dim = 4;

  std::uint32_t l1_bytes = 32 * 1024;  // 32 KB
  std::uint32_t l1_assoc = 4;

  std::uint32_t l2_bytes = 8 * 1024 * 1024;  // 8 MB shared, a bank per tile
  std::uint32_t l2_assoc = 8;
};

/// How a detected conflict is resolved (paper Section III).
enum class ConflictPolicy {
  /// LogTM Stall policy: the requester stalls; deadlock cycles abort the
  /// youngest transaction. The paper's default for all experiments.
  kRequesterStalls,
  /// The paper's stated alternative: "make the receiving core stall or
  /// abort its transaction to guarantee the execution of the requester's
  /// transaction". The holder is doomed; the requester proceeds after the
  /// holder's isolation clears.
  kRequesterWins,
};

/// HTM-wide parameters. The fixed retry, backoff and version-management
/// costs live next to the code that charges them (sim::ThreadContext,
/// vm/logtm_se.hpp, vm::FasTm, vm::DynTm).
struct HtmParams {
  std::uint32_t signature_bits = 2048;  // 2 Kbit Bloom filters
  std::uint32_t signature_hashes = 2;
  ConflictPolicy conflict_policy = ConflictPolicy::kRequesterStalls;

  // Software abort handler entry (LogTM-SE, degenerated FasTM); the
  // per-entry restore walk is vm::kAbortPerEntry.
  Cycle abort_trap_latency = 200;
};

/// SUV parameters (paper Sections III-IV, Table III). The fixed first-level
/// latency, summary hash count, copy and flash costs live next to the code
/// that charges them (suv::RedirectTable, vm::SuvVm).
struct SuvParams {
  std::uint32_t l1_table_entries = 512;   // fully associative, zero latency
  std::uint32_t l2_table_entries = 16384; // 8-way shared
  std::uint32_t l2_table_assoc = 8;
  Cycle l2_table_latency = 10;
  Cycle misspeculation_penalty = 100;     // wrong speculative use of original

  std::uint32_t summary_signature_bits = 2048;
};

/// True when the SUVTM_CHECK environment variable is set, non-empty and
/// not "0". Read once per process so the same binary serves both the plain
/// and the `_checked` ctest variants.
inline bool check_enabled_by_env() {
  static const bool v = [] {
    // lint: allow(wallclock-entropy): deliberate config gate -- selects
    // which subsystems run, never a simulated value
    const char* e = std::getenv("SUVTM_CHECK");
    return e != nullptr && *e != '\0' && !(e[0] == '0' && e[1] == '\0');
  }();
  return v;
}

/// Runtime knobs for the correctness-checking subsystem (src/check).
struct CheckParams {
  /// Master switch: record the access history, run the serializability
  /// oracle at end of run, and audit structural invariants while running.
  bool enabled = check_enabled_by_env();
  /// Sampling period for the full structural audits: run them every this
  /// many commit completions (0 disables sampling; they always run once
  /// more at end of run). Every abort audits the structures it touched
  /// (signatures + SUV tables) regardless: aborts are where
  /// version-management bugs surface and they are rare enough to afford it. Sampling trades detection *latency*, not
  /// soundness: structural corruption is persistent state, so it is caught
  /// at the next sampled boundary or at finalize -- within N commits of
  /// its first observable effect. Mutation/negative tests pin this to 1 so
  /// a corrupted state can never slip through a sampled window.
  std::uint32_t audit_period = 512;
  /// Differential-testing baseline: retain the whole history and replay it
  /// only at finalize() instead of streaming at the serialization horizon.
  /// Slower and unbounded in memory; used by the equivalence suite to prove
  /// the incremental oracle's verdicts identical.
  bool reference = false;
};

/// Runtime knobs for the observability subsystem (src/obs). A Recorder is
/// created iff trace or metrics is set, so the default-off config costs one
/// never-taken branch per hook.
struct ObsParams {
  /// Record lifecycle spans, conflict edges and structure events for the
  /// Chrome-trace exporter.
  bool trace = false;
  /// Fill the metrics registry and harvest a MetricsSnapshot into the
  /// RunResult.
  bool metrics = false;
  /// Also trace per-access memory events (L1 misses, directory forwards).
  /// Voluminous; off by default even when tracing.
  bool trace_mem = false;
  /// Hard cap on recorded trace events per run (overflow counts `dropped`).
  std::uint64_t max_trace_events = 1ull << 20;

  bool enabled() const { return trace || metrics; }
};

/// Sharded conservative-PDES parameters (DESIGN.md section 14).
///
/// `shards` is a *semantic* knob: it declares the simulated machine as a
/// partitioned one (each shard owns a contiguous block of cores plus its
/// own slice of the memory hierarchy and HTM state, the way a tablet cell
/// owns its key range in a distributed store). shards == 1 is exactly the
/// classic monolithic machine. `host_threads` is a pure *execution* knob:
/// at a fixed shard count, every RunResult/trace/metrics byte is identical
/// for any host_threads value -- domains are simulated independently and
/// merged in fixed shard order, so host threading can never reorder events.
struct PdesParams {
  /// Simulated-machine shards. Must divide mem.num_cores. Workloads built
  /// for a sharded machine must keep transactions and stores shard-local;
  /// cross-shard traffic is limited to non-transactional reads, which
  /// travel through window-boundary mailboxes (violations throw
  /// check::CheckFailure).
  std::uint32_t shards = 1;
  /// Host threads driving the shard schedulers (--sim-threads /
  /// SUVTM_SIM_THREADS). Clamped to `shards`; ignored when shards == 1.
  /// No semantic effect by construction.
  std::uint32_t host_threads = 1;
};

struct SimConfig {
  Scheme scheme = Scheme::kSuv;
  MemParams mem;
  HtmParams htm;
  SuvParams suv;
  PdesParams pdes;
  CheckParams check;
  ObsParams obs;
  std::uint64_t seed = 1;
  /// Safety valve: abort the simulation if it exceeds this many cycles.
  Cycle max_cycles = 5'000'000'000ull;

  /// Throw std::invalid_argument naming the first field whose value the
  /// simulator cannot model (Simulator's constructor calls this; defined
  /// in sim/simulator.cpp).
  void validate() const;
};

}  // namespace suvtm::sim
