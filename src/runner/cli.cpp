#include "runner/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

namespace suvtm::runner {

namespace {

/// A positional that strtod consumes entirely ("0.25", "2", "1e-3").
bool fully_numeric(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

unsigned to_count(const char* s) {
  return static_cast<unsigned>(std::strtoul(s, nullptr, 10));
}

/// Job count when --jobs is absent (or 0): SUVTM_JOBS, else the host's
/// hardware concurrency.
unsigned default_jobs() {
  if (const char* env = std::getenv("SUVTM_JOBS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

Cli Cli::parse(int& argc, char** argv) {
  Cli cli;
  if (const char* e = std::getenv("SUVTM_SIM_THREADS")) {
    const long v = std::strtol(e, nullptr, 10);
    if (v > 0) cli.sim_threads = static_cast<unsigned>(v);
  }
  bool jobs_given = false;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--jobs") {
      // A bare trailing --jobs is consumed (default job count) rather than
      // left behind to be misread as a positional argument.
      jobs_given = true;
      if (i + 1 < argc) cli.jobs = to_count(argv[++i]);
    } else if (a.starts_with("--jobs=")) {
      jobs_given = true;
      cli.jobs = to_count(argv[i] + 7);
    } else if (a == "--sim-threads" && i + 1 < argc) {
      cli.sim_threads = to_count(argv[++i]);
    } else if (a.starts_with("--sim-threads=")) {
      cli.sim_threads = to_count(argv[i] + 14);
    } else if (a == "--smoke") {
      cli.smoke = true;
    } else if (a == "--check") {
      cli.check = true;
    } else if (a == "--no-check") {
      cli.no_check = true;
    } else if (a == "--metrics") {
      cli.metrics = true;
    } else if (a == "--trace" && i + 1 < argc) {
      cli.trace_path = argv[++i];
    } else if (a.starts_with("--trace=")) {
      cli.trace_path = a.substr(8);
    } else if (a.starts_with("--")) {
      argv[w++] = argv[i];  // unknown flag: leave for the harness
    } else {
      double v = 0.0;
      if (!cli.has_scale && fully_numeric(argv[i], v)) {
        cli.has_scale = true;
        cli.scale = v;
      } else {
        cli.args.emplace_back(argv[i]);
      }
    }
  }
  argc = w;
  argv[argc] = nullptr;

  if (cli.jobs == 0) cli.jobs = default_jobs();
  // Shard threads and sweep workers share the host instead of multiplying.
  if (!jobs_given && cli.sim_threads > 1) {
    cli.jobs = std::max(1u, cli.jobs / cli.sim_threads);
  }
  if (cli.no_check) cli.check = false;
  return cli;
}

void Cli::apply(sim::SimConfig& cfg) const {
  if (check) cfg.check.enabled = true;
  if (metrics) cfg.obs.metrics = true;
  if (tracing()) cfg.obs.trace = true;
  if (sim_threads != 0) cfg.pdes.host_threads = sim_threads;
}

bool Cli::write_trace(const std::vector<obs::NamedTrace>& traces) const {
  if (!obs::write_chrome_trace(trace_path, traces)) {
    std::fprintf(stderr, "warning: could not write trace to %s\n",
                 trace_path.c_str());
    return false;
  }
  std::printf("trace written to %s (open in ui.perfetto.dev)\n",
              trace_path.c_str());
  return true;
}

std::vector<RunResult> Cli::run_matrix(std::size_t n, const RunFn& run,
                                       const std::vector<std::string>& names,
                                       BenchReport& report) const {
  std::vector<RunResult> results(n);
  std::vector<obs::TraceData> traces(tracing() ? n : 0);
  const WallTimer timer;
  parallel_for(n, jobs, [&](std::size_t i) {
    results[i] = run(i, tracing() ? &traces[i] : nullptr);
  });
  const double wall_s = timer.seconds();

  if (tracing()) {
    std::vector<obs::NamedTrace> named;
    named.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      named.push_back({i < names.size() ? names[i] : "run", &traces[i]});
    }
    write_trace(named);
  }
  std::uint64_t events = 0;
  obs::MetricsSnapshot merged;
  for (const RunResult& r : results) {
    events += r.sim_events;
    if (metrics) obs::merge(merged, r.metrics);
  }
  if (metrics) report.set_metrics(merged, "metrics.");
  report.set("jobs", jobs);
  report.set("runs", static_cast<std::uint64_t>(n));
  report.set("wall_seconds", wall_s);
  report.set("sim_events", events);
  report.set("events_per_sec",
             wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0);
  return results;
}

std::vector<RunResult> Cli::run_matrix(std::vector<RunPoint> points,
                                       const std::vector<std::string>& names,
                                       BenchReport& report) const {
  for (RunPoint& p : points) apply(p.cfg);
  return run_matrix(
      points.size(),
      [&](std::size_t i, obs::TraceData* trace) {
        return run_app(points[i].app, points[i].cfg, points[i].params, trace);
      },
      names, report);
}

}  // namespace suvtm::runner
