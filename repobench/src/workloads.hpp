// The benchmark's workloads: each is a run matrix (app x scheme x seed, or
// sharded-KV runs x seed) executed one point after another in this process.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "runner/experiment.hpp"
#include "sim/config.hpp"
#include "stamp/framework.hpp"
#include "stamp/sharded_kv.hpp"

namespace repobench {

/// One matrix point: a STAMP app or a sharded-KV run under one config.
struct Point {
  bool kv = false;
  suvtm::stamp::AppId app{};
  suvtm::stamp::SuiteParams params;
  suvtm::stamp::ShardedKvParams kv_params;
  suvtm::sim::SimConfig cfg;

  std::string label() const;
};

struct Workload {
  std::string name;
  std::vector<Point> points;
  bool check_row = false;  ///< traced run prices the checker (on vs off)
  bool sharded = false;    ///< goes through the PDES runtime
  std::uint32_t host_threads = 1;
  /// A prefix of `points` that the per-point metrics and the traced run's
  /// A/B rows use: stamp-hc's canonical half, whose inputs do not change
  /// with --seed; every point elsewhere.
  std::size_t head_points = 0;
  /// Timed sweeps per --seconds second: a fixed sweep count, sized so each
  /// point gets enough samples spread over the run that one lands in a calm
  /// moment of the host (one sweep takes about 1/sweeps_per_s seconds on a
  /// calm 4-CPU host, so the timed part lasts about --seconds there).
  double sweeps_per_s = 1.0;
  std::string size;  ///< human-readable size statement for the metadata
};

/// Builds `name`'s matrix from `seed`. `tiny` shrinks it to seconds for the
/// self-test. Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

/// The paper table's matrix: five high-contention apps x five schemes on
/// the first canonical seeds, at a larger scale than stamp-hc's.
std::vector<Point> model_points(bool tiny);

/// Runs every workload's configurations for seed candidates [first, last)
/// and returns those on which some run fails (prints why).
std::vector<int> vet_candidates(int first, int last);

/// Result of one point. `ok` is false when the run threw (verify(), checker
/// verdict, cycle limit); `error` then says why.
struct Outcome {
  bool ok = false;
  std::string error;
  suvtm::runner::RunResult result;
  double setup_s = 0.0;  ///< Simulator construction + workload build
  double run_s = 0.0;    ///< Simulator::run
  double total_s = 0.0;  ///< the whole point, construction to harvest
  double cpu_s = 0.0;    ///< process CPU time over total_s
  std::uint64_t audits = 0;      ///< Checker::audits_run(), all domains
  std::uint64_t violations = 0;  ///< checker violations, all domains
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
};

/// Runs one point; spans (when non-null) wrap construction, build, run,
/// verify and harvest under one "point" span carrying `run_id`.
Outcome run_point(const Point& p, Spans* spans, std::uint64_t run_id);

struct Sweep {
  std::vector<Outcome> out;
  double wall_s = 0.0;
  std::uint64_t events = 0;
};

/// Runs every point in order.
Sweep run_sweep(const std::vector<Point>& points, Spans* spans = nullptr);

/// Copy of `points` with `edit` applied to each.
std::vector<Point> with(std::vector<Point> points,
                        const std::function<void(Point&)>& edit);

/// Geomean makespan speedup of one scheme over another on the
/// high-contention apps, beside the paper's value for the same pair.
struct ModelRow {
  const char* pair;
  double paper_pct;
  double measured_pct;
  double error_pp;
};

/// The paper's three high-contention headline pairs, measured over every
/// (app, seed) of `points` (the canonical matrix).
std::vector<ModelRow> model_rows(const std::vector<Point>& points,
                                 const std::vector<Outcome>& outcomes);

}  // namespace repobench
