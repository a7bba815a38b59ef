// Experiment harness: runs one STAMP-like application under one
// version-management scheme and collects everything the paper's tables and
// figures report. A matrix of such runs fans out across host cores with
// parallel_for; every run is an isolated Simulator that shares no mutable
// state with its siblings, so results are bit-identical at any jobs count.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "htm/conflict_manager.hpp"
#include "htm/htm_system.hpp"
#include "htm/version_manager.hpp"
#include "mem/memory_system.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/breakdown.hpp"
#include "sim/config.hpp"
#include "stamp/framework.hpp"
#include "suv/redirect_table.hpp"
#include "vm/dyntm.hpp"
#include "vm/suv_vm.hpp"

namespace suvtm::runner {

struct RunResult {
  std::string app;
  sim::Scheme scheme{};
  Cycle makespan = 0;
  std::uint64_t sim_events = 0;  // scheduler events processed by this run
  sim::Breakdown breakdown;  // aggregated over cores
  htm::HtmStats htm;
  htm::ConflictStats conflicts;
  htm::VmStats vm;
  mem::MemStats mem;

  // SUV-specific (valid when has_suv).
  bool has_suv = false;
  suv::TableStats table;
  vm::SuvVmStats suv;
  std::uint64_t pool_lines_in_use = 0;
  std::size_t redirect_entries_live = 0;

  // DynTM-specific (valid when has_dyntm).
  bool has_dyntm = false;
  vm::DynTmStats dyntm;

  /// Harvested observability metrics (empty unless cfg.obs asked for
  /// metrics): the hook-fed registry plus derived rates from the stats
  /// blocks above, under one uniform namespace.
  obs::MetricsSnapshot metrics;

  /// Field-for-field equality; the determinism tests rely on this covering
  /// every stats struct.
  bool operator==(const RunResult&) const = default;
};

/// One point of an experiment cross-product.
struct RunPoint {
  stamp::AppId app{};
  sim::SimConfig cfg;
  stamp::SuiteParams params;
};

/// Harvest every stats block -- and, when the run recorded metrics, the
/// uniform MetricsSnapshot -- from a finished simulation. When `trace_out`
/// is non-null and the run traced, the event trace is moved into it.
/// Shared by run_app and by programs that build a Simulator by hand, so
/// hand-built simulations produce the exact RunResult the harness would.
RunResult harvest_result(sim::Simulator& sim, std::string app_name,
                         obs::TraceData* trace_out = nullptr);

/// Run `app` under `cfg`, verify workload invariants, and harvest stats.
/// When `trace_out` is non-null and cfg.obs.trace is set, the run's event
/// trace is moved into it.
RunResult run_app(stamp::AppId app, const sim::SimConfig& cfg,
                  const stamp::SuiteParams& params,
                  obs::TraceData* trace_out = nullptr);

/// Run `fn(0)` .. `fn(n-1)` on min(jobs, n) host threads spawned and joined
/// within the call; jobs <= 1 runs every index inline, in order. Threads
/// claim indices in ascending order from a shared counter. Every index runs
/// even when some throw; the exception of the lowest failing index is then
/// rethrown.
void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& fn);

/// Run every point on `jobs` host threads; results in submission order.
/// When `traces` is non-null it is resized to one trace per point (empty
/// unless the point's cfg.obs.trace is set). Each run owns its own
/// Recorder, so the traces are byte-stable across job counts.
std::vector<RunResult> run_matrix(const std::vector<RunPoint>& points,
                                  unsigned jobs,
                                  std::vector<obs::TraceData>* traces = nullptr);

/// Geometric-mean speedup of `test` over `base` across matching apps,
/// optionally restricted to the paper's five high-contention apps.
double geomean_speedup(const std::vector<RunResult>& base,
                       const std::vector<RunResult>& test,
                       bool high_contention_only);

}  // namespace suvtm::runner
