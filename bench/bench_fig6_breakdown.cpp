// Figure 6: execution-time breakdown of LogTM-SE (L), FasTM (F) and SUV-TM
// (S) across the eight STAMP applications, normalized per app to LogTM-SE.
// Also prints the paper's Section V headline speedups (all apps / the five
// high-contention apps).
//
// Usage: bench_fig6_breakdown [scale] [csv-path] [--jobs N] [--check]
//            [--trace out.json] [--metrics]
//   With a csv-path, also writes the per-app makespan table as CSV for
//   plotting. Metrics are always recorded here: BENCH_fig6_breakdown.json
//   carries the per-app SUV-TM metrics namespace (and, with --metrics, the
//   matrix-wide sums).
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "runner/cli.hpp"
#include "runner/tables.hpp"

using namespace suvtm;

int main(int argc, char** argv) {
  const runner::Cli cli = runner::Cli::parse(argc, argv);
  stamp::SuiteParams params;
  params.scale = cli.scale_or(params.scale);

  runner::BenchReport report("fig6_breakdown");

  // Fan the full scheme x app matrix across host cores in one batch;
  // metrics are on unconditionally so the report always carries the uniform
  // namespace.
  const sim::Scheme schemes[] = {sim::Scheme::kLogTmSe, sim::Scheme::kFasTm,
                                 sim::Scheme::kSuv};
  std::vector<runner::RunPoint> points;
  std::vector<std::string> names;
  for (sim::Scheme s : schemes) {
    sim::SimConfig c;
    c.scheme = s;
    c.obs.metrics = true;
    for (stamp::AppId app : stamp::all_apps()) {
      points.push_back(runner::RunPoint{app, c, params});
      names.push_back(std::string(sim::scheme_cli_name(s)) + "/" +
                      stamp::app_name(app));
    }
  }
  const auto flat = cli.run_matrix(points, names, report);

  std::map<sim::Scheme, std::vector<runner::RunResult>> results;
  std::size_t idx = 0;
  for (sim::Scheme s : schemes) {
    for (std::size_t a = 0; a < stamp::all_apps().size(); ++a) {
      results[s].push_back(flat[idx++]);
    }
  }

  std::printf("Figure 6: execution time breakdown, normalized to LogTM-SE "
              "(scale=%.2f, 16 cores)\n\n", params.scale);
  std::vector<std::vector<std::string>> rows;
  rows.push_back(runner::breakdown_header());
  const auto& base = results[sim::Scheme::kLogTmSe];
  for (std::size_t i = 0; i < base.size(); ++i) {
    const double norm = static_cast<double>(base[i].breakdown.total());
    for (sim::Scheme s : schemes) {
      const auto& r = results[s][i];
      rows.push_back(runner::breakdown_row(
          base[i].app + std::string("/") + sim::scheme_name(s), r.breakdown,
          norm));
    }
    rows.push_back({});
  }
  std::printf("%s\n", runner::render_table(rows).c_str());

  std::printf("makespan (cycles) and abort ratio per app:\n");
  std::vector<std::vector<std::string>> mk;
  mk.push_back({"app", "LogTM-SE", "FasTM", "SUV-TM", "abort%% L", "abort%% F",
                "abort%% S"});
  for (std::size_t i = 0; i < base.size(); ++i) {
    mk.push_back({base[i].app,
                  runner::fmt_u64(results[sim::Scheme::kLogTmSe][i].makespan),
                  runner::fmt_u64(results[sim::Scheme::kFasTm][i].makespan),
                  runner::fmt_u64(results[sim::Scheme::kSuv][i].makespan),
                  runner::fmt_fixed(
                      100 * results[sim::Scheme::kLogTmSe][i].htm.abort_ratio(), 1),
                  runner::fmt_fixed(
                      100 * results[sim::Scheme::kFasTm][i].htm.abort_ratio(), 1),
                  runner::fmt_fixed(
                      100 * results[sim::Scheme::kSuv][i].htm.abort_ratio(), 1)});
  }
  std::printf("%s\n", runner::render_table(mk).c_str());
  if (!cli.args.empty()) {
    if (runner::write_csv(cli.args[0].c_str(), mk)) {
      std::printf("wrote %s\n\n", cli.args[0].c_str());
    }
  }

  const auto& logtm = results[sim::Scheme::kLogTmSe];
  const auto& fastm = results[sim::Scheme::kFasTm];
  const auto& suvtm_r = results[sim::Scheme::kSuv];
  std::printf("headline speedups (geometric mean):\n");
  std::printf("  SUV-TM over LogTM-SE, all apps        : %+.1f%%   (paper: +56%%)\n",
              100.0 * (runner::geomean_speedup(logtm, suvtm_r, false) - 1.0));
  std::printf("  SUV-TM over LogTM-SE, high-contention : %+.1f%%   (paper: +95%%)\n",
              100.0 * (runner::geomean_speedup(logtm, suvtm_r, true) - 1.0));
  std::printf("  SUV-TM over FasTM,    all apps        : %+.1f%%   (paper: +9%%)\n",
              100.0 * (runner::geomean_speedup(fastm, suvtm_r, false) - 1.0));
  std::printf("  SUV-TM over FasTM,    high-contention : %+.1f%%   (paper: +12%%)\n",
              100.0 * (runner::geomean_speedup(fastm, suvtm_r, true) - 1.0));

  report.set("scale", params.scale);
  report.set("suv_vs_logtm_all",
             runner::geomean_speedup(logtm, suvtm_r, false));
  report.set("suv_vs_logtm_high",
             runner::geomean_speedup(logtm, suvtm_r, true));
  report.set("suv_vs_fastm_all",
             runner::geomean_speedup(fastm, suvtm_r, false));
  // The per-app SUV-TM metrics namespace: the paper's scheme, one block per
  // application, straight from the hook-fed registry plus derived rates.
  for (const auto& r : suvtm_r) {
    report.set_metrics(r.metrics, "metrics." + r.app + ".");
  }
  report.write();
  return 0;
}
