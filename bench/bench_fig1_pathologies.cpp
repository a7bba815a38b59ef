// Figure 1: the repair and merge pathologies, reproduced as targeted
// micro-scenarios.
//
//  Repair pathology: an aborting LogTM-SE transaction holds isolation while
//  software walks its undo log; a neighbour that conflicts during that
//  window stalls (and may itself abort). SUV's flash abort closes the
//  window. We measure the isolation-window length directly as the Aborting
//  bucket per abort, plus the neighbour's stall time.
//
//  Merge pathology: a lazy (DynTM/FasTM-style) committer publishes its
//  write set line by line while holding isolation; neighbours conflict
//  during the merge. With SUV publication is a flash flip. Measured as the
//  Committing bucket per commit.
//
// Usage: bench_fig1_pathologies [--jobs N] [--trace out.json] [--metrics]
#include <cstdio>
#include <string>
#include <vector>

#include "runner/cli.hpp"
#include "runner/tables.hpp"

using namespace suvtm;

namespace {

// Writer threads repeatedly rewrite a shared region in big transactions;
// reader threads poke at it. High write-write overlap forces aborts.
struct Scenario {
  Addr region;
  std::uint64_t lines;
  sim::Barrier* bar;
};

sim::ThreadTask contender(sim::ThreadContext& tc, const Scenario& s,
                          int rounds) {
  co_await tc.barrier(*s.bar);
  for (int r = 0; r < rounds; ++r) {
    co_await stamp::atomically(tc, 1,
                               [&](sim::ThreadContext& t) -> sim::Task<void> {
      // Read-modify-write a window of the shared region, offset per core.
      const std::uint64_t start =
          (tc.core() * 7 + static_cast<std::uint64_t>(r)) % s.lines;
      for (std::uint64_t i = 0; i < 24; ++i) {
        const Addr a = s.region + ((start + i) % s.lines) * kLineBytes;
        const std::uint64_t v = co_await t.load(a);
        co_await t.store(a, v + 1);
      }
    });
    co_await tc.compute(100);
  }
  co_await tc.barrier(*s.bar);
}

// Fills only what the scenario line and the report read; the metrics are
// the raw registry, without harvest_result's derived rates.
runner::RunResult run_scenario(sim::Scheme scheme, const runner::Cli& cli,
                               obs::TraceData* trace) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cli.apply(cfg);
  sim::Simulator sim(cfg);
  Scenario s;
  s.region = 0x40000;
  s.lines = 96;  // heavy overlap between the 16 contenders
  s.bar = &sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, contender(sim.context(c), s, 24));
  }
  sim.run();
  runner::RunResult r;
  r.scheme = scheme;
  r.makespan = sim.makespan();
  r.sim_events = sim.events_processed();
  r.breakdown = sim.total_breakdown();
  r.htm = sim.total_htm_stats();
  if (cli.metrics) r.metrics = sim.harvest_metrics();
  if (trace != nullptr) *trace = sim.take_trace();
  return r;
}

std::string scenario_line(const runner::RunResult& r) {
  const sim::Breakdown& b = r.breakdown;
  const htm::HtmStats& ht = r.htm;
  const double abort_window =
      ht.aborts ? static_cast<double>(b.get(sim::Bucket::kAborting)) /
                      static_cast<double>(ht.aborts)
                : 0.0;
  const double commit_window =
      ht.commits ? static_cast<double>(b.get(sim::Bucket::kCommitting)) /
                       static_cast<double>(ht.commits)
                 : 0.0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-10s makespan=%9llu aborts=%6llu  isolation window per "
                "abort=%7.1f cy  per commit=%6.1f cy  stalled=%llu",
                sim::scheme_name(r.scheme),
                static_cast<unsigned long long>(r.makespan),
                static_cast<unsigned long long>(ht.aborts), abort_window,
                commit_window,
                static_cast<unsigned long long>(b.get(sim::Bucket::kStalled)));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const runner::Cli cli = runner::Cli::parse(argc, argv);
  std::printf("Figure 1 micro-scenario: 16 contenders read-modify-write an "
              "overlapping 96-line\nregion. The per-abort and per-commit "
              "isolation windows show the repair and merge\npathologies "
              "directly.\n\n");
  const auto& schemes = sim::all_schemes();
  // Each scenario is an independent simulator: fan the five schemes across
  // host threads and print the collected lines in scheme order.
  std::vector<std::string> names;
  for (sim::Scheme s : schemes) {
    names.push_back(std::string("pathology/") + sim::scheme_cli_name(s));
  }
  runner::BenchReport report("fig1_pathologies");
  const auto results = cli.run_matrix(
      schemes.size(),
      [&](std::size_t i, obs::TraceData* trace) {
        return run_scenario(schemes[i], cli, trace);
      },
      names, report);
  for (const auto& r : results) std::printf("%s\n", scenario_line(r).c_str());
  std::printf("\nexpected: LogTM-SE's per-abort window (software log walk) "
              "dwarfs FasTM's flash\ninvalidate and SUV's flash flip; DynTM's "
              "per-commit window (lazy publication)\ndwarfs DynTM+SUV's.\n");
  report.write();
  return 0;
}
