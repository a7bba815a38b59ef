// STAMP explorer: run any application under any scheme with adjustable
// scale/seed and print the full statistics harvest -- the repository's
// one-stop CLI for poking at the reproduction.
//
//   $ ./build/examples/stamp_explorer <app> <scheme> [scale] [seed]
//       [--check] [--metrics] [--trace out.json]
//   $ ./build/examples/stamp_explorer yada suv 1.0 42 --metrics
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "runner/cli.hpp"
#include "runner/experiment.hpp"
#include "runner/tables.hpp"

using namespace suvtm;

namespace {

void usage() {
  std::printf("usage: stamp_explorer <app> <scheme> [scale] [seed]\n"
              "           [--check] [--metrics] [--trace out.json]\n");
  std::printf("  apps   : ");
  for (auto a : stamp::all_apps()) std::printf("%s ", stamp::app_name(a));
  std::printf("\n  schemes:");
  for (const auto& row : sim::scheme_table()) std::printf(" %s", row.cli_name);
  std::printf("\n");
}

bool parse_app(const std::string& s, stamp::AppId* out) {
  for (auto a : stamp::all_apps()) {
    if (s == stamp::app_name(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const runner::Cli cli = runner::Cli::parse(argc, argv);

  stamp::AppId app = stamp::AppId::kGenome;
  sim::SimConfig cfg;
  stamp::SuiteParams params;
  if (cli.args.size() < 2 || !parse_app(cli.args[0], &app)) {
    usage();
    return cli.args.empty() ? 0 : 1;
  }
  try {
    cfg.scheme = sim::scheme_from_string(cli.args[1]);
  } catch (const std::invalid_argument&) {
    usage();
    return 1;
  }
  params.scale = cli.scale_or(params.scale);
  if (cli.args.size() > 2) {
    params.seed = std::strtoull(cli.args[2].c_str(), nullptr, 10);
  }

  cli.apply(cfg);
  obs::TraceData trace;
  const auto r = runner::run_app(app, cfg, params, &trace);

  std::printf("app=%s scheme=%s scale=%.2f seed=%llu\n\n", r.app.c_str(),
              sim::scheme_name(r.scheme), params.scale,
              static_cast<unsigned long long>(params.seed));
  std::printf("makespan        : %llu cycles (%.3f ms at 1.2 GHz)\n",
              static_cast<unsigned long long>(r.makespan),
              static_cast<double>(r.makespan) / 1.2e6);
  std::printf("commits/aborts  : %llu / %llu (abort ratio %.1f%%)\n",
              static_cast<unsigned long long>(r.htm.commits),
              static_cast<unsigned long long>(r.htm.aborts),
              100.0 * r.htm.abort_ratio());
  std::printf("conflicts       : %llu (%.0f%% false), deadlock aborts %llu\n",
              static_cast<unsigned long long>(r.conflicts.conflicts),
              100.0 * static_cast<double>(r.conflicts.false_conflicts) /
                  static_cast<double>(
                      std::max<std::uint64_t>(1, r.conflicts.conflicts)),
              static_cast<unsigned long long>(r.conflicts.deadlock_aborts));

  std::printf("\nexecution-time breakdown (cycles summed over 16 cores):\n");
  for (std::size_t i = 0; i < sim::kNumBuckets; ++i) {
    const auto b = static_cast<sim::Bucket>(i);
    std::printf("  %-11s %12llu (%5.1f%%)\n", sim::bucket_name(b),
                static_cast<unsigned long long>(r.breakdown.get(b)),
                100.0 * static_cast<double>(r.breakdown.get(b)) /
                    static_cast<double>(r.breakdown.total()));
  }

  std::printf("\nmemory system: L1 %llu/%llu hits/misses, L2 misses %llu, "
              "writebacks %llu,\n  invalidations %llu, forwards %llu, "
              "speculative evictions %llu\n",
              static_cast<unsigned long long>(r.mem.l1_hits),
              static_cast<unsigned long long>(r.mem.l1_misses),
              static_cast<unsigned long long>(r.mem.l2_misses),
              static_cast<unsigned long long>(r.mem.writebacks),
              static_cast<unsigned long long>(r.mem.invalidations),
              static_cast<unsigned long long>(r.mem.forwards),
              static_cast<unsigned long long>(r.mem.spec_evictions));
  std::printf("version mgmt : %llu tx stores, %llu log entries, %llu data "
              "overflows, %llu degenerations\n",
              static_cast<unsigned long long>(r.vm.tx_stores),
              static_cast<unsigned long long>(r.vm.log_entries),
              static_cast<unsigned long long>(r.vm.data_overflows),
              static_cast<unsigned long long>(r.vm.degenerations));

  if (r.has_dyntm) {
    std::printf("DynTM        : %llu eager / %llu lazy txns, %llu "
                "commit-time dooms, %llu redo overflows\n",
                static_cast<unsigned long long>(r.dyntm.eager_txns),
                static_cast<unsigned long long>(r.dyntm.lazy_txns),
                static_cast<unsigned long long>(r.dyntm.lazy_commit_dooms),
                static_cast<unsigned long long>(r.dyntm.redo_overflows));
  }
  if (r.has_suv) {
    std::printf("\nSUV redirect table:\n");
    std::printf("  entries: %llu created, %llu toggled, %llu published, "
                "%llu deleted, %llu discarded\n",
                static_cast<unsigned long long>(r.suv.entries_created),
                static_cast<unsigned long long>(r.suv.entries_toggled),
                static_cast<unsigned long long>(r.suv.entries_published),
                static_cast<unsigned long long>(r.suv.entries_deleted),
                static_cast<unsigned long long>(r.suv.entries_discarded));
    std::printf("  live at end: %zu entries, %llu pool lines in use\n",
                r.redirect_entries_live,
                static_cast<unsigned long long>(r.pool_lines_in_use));
    std::printf("  lookups: %llu (%llu summary-filtered), L1 hit rate "
                "%.1f%%, L2 hits %llu,\n  mis-speculations %llu, "
                "L1-table spills %llu, overflowing txns %llu\n",
                static_cast<unsigned long long>(r.table.lookups),
                static_cast<unsigned long long>(r.table.summary_filtered),
                100.0 * (1.0 - r.table.l1_miss_rate()),
                static_cast<unsigned long long>(r.table.l2_hits),
                static_cast<unsigned long long>(r.table.misspeculations),
                static_cast<unsigned long long>(r.table.l1_overflow_entries),
                static_cast<unsigned long long>(r.suv.table_overflow_txns));
  }

  if (!r.metrics.empty()) {
    std::printf("\nmetrics:\n");
    for (const auto& [name, v] : r.metrics.scalars) {
      std::printf("  %-44s %g\n", name.c_str(), v);
    }
  }
  if (cli.tracing()) {
    const std::string label = r.app + "/" + sim::scheme_name(r.scheme);
    std::printf("\n");
    if (!cli.write_trace({{label, &trace}})) return 1;
  }
  return 0;
}
