// The one bench/example front end: one argv pass for --jobs, --sim-threads
// and the shared switches (--smoke, --check, --trace <path>, --metrics),
// one bench sweep that times the runs and writes the common report keys,
// and one trace writer. parse() mutates argc/argv, removing what it
// consumed, so harness-specific parsing (positional csv lists, scheme
// names) sees a clean argument vector afterwards.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "runner/bench_report.hpp"
#include "runner/experiment.hpp"
#include "sim/config.hpp"

namespace suvtm::runner {

struct Cli {
  /// Host threads for a sweep: --jobs N / --jobs=N, else SUVTM_JOBS, else
  /// the host's hardware concurrency.
  unsigned jobs = 0;
  /// --sim-threads N / SUVTM_SIM_THREADS: host threads driving one sharded
  /// simulation's domain schedulers (0 = not requested; leaves configs
  /// untouched). Purely an execution knob -- results are bit-identical at
  /// any value. When set > 1 and --jobs was not given explicitly, the
  /// default sweep-level job count is divided by it so the two layers of
  /// host parallelism share the machine instead of multiplying.
  unsigned sim_threads = 0;
  bool smoke = false;      ///< --smoke: tiny inputs for CI
  bool check = false;      ///< --check: enable the correctness checker
  /// --no-check: explicitly opt out of checking. Harnesses that default
  /// checking ON for some mode (bench_scaling --smoke) honour this; it
  /// never needs consulting where checking is already opt-in.
  bool no_check = false;
  bool metrics = false;    ///< --metrics: harvest the metrics registry
  std::string trace_path;  ///< --trace <path> / --trace=<path> destination
  bool has_scale = false;
  double scale = 1.0;              ///< first numeric positional, if any
  std::vector<std::string> args;   ///< remaining positionals, in order

  /// Parse and strip the shared flags plus all positionals from argv.
  /// Unknown --flags stay in argv for harness-specific parsing.
  static Cli parse(int& argc, char** argv);

  bool tracing() const { return !trace_path.empty(); }
  double scale_or(double dflt) const { return has_scale ? scale : dflt; }
  const std::string& arg_or(std::size_t i, const std::string& dflt) const {
    return i < args.size() ? args[i] : dflt;
  }

  /// Fold the shared switches into a run config (never clears flags a
  /// caller already set): --check -> cfg.check.enabled, --metrics ->
  /// cfg.obs.metrics, --trace -> cfg.obs.trace, --sim-threads ->
  /// cfg.pdes.host_threads (only when given).
  void apply(sim::SimConfig& cfg) const;

  /// Write `traces` as one Chrome-trace JSON file at trace_path and say so
  /// on stdout; on failure, warn on stderr and return false.
  bool write_trace(const std::vector<obs::NamedTrace>& traces) const;

  /// One simulation of a bench sweep: run index `i`, moving its event trace
  /// into `*trace` when `trace` is non-null.
  using RunFn = std::function<RunResult(std::size_t i, obs::TraceData* trace)>;

  /// The bench sweep: runs `n` simulations over `jobs` host threads and
  /// times them. With --trace, writes every run's trace, labelled
  /// `names[i]` ("run" past its end); with --metrics, merges the runs'
  /// metrics into `report` under "metrics."; then sets the report's jobs,
  /// runs, wall_seconds, sim_events and events_per_sec. Results come back
  /// in index order.
  std::vector<RunResult> run_matrix(std::size_t n, const RunFn& run,
                                    const std::vector<std::string>& names,
                                    BenchReport& report) const;
  /// The same sweep over `points`, each run with the shared switches
  /// applied to its config.
  std::vector<RunResult> run_matrix(std::vector<RunPoint> points,
                                    const std::vector<std::string>& names,
                                    BenchReport& report) const;
};

}  // namespace suvtm::runner
