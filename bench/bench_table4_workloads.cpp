// Table IV analogue: measured workload characteristics -- transaction
// length (cycles of committed transactional work per commit, our analogue
// of the paper's instruction counts) and contention class per application.
//
// Usage: bench_table4_workloads [scale] [--jobs N] [--check]
//            [--trace out.json] [--metrics]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "runner/cli.hpp"
#include "runner/tables.hpp"

using namespace suvtm;

int main(int argc, char** argv) {
  const runner::Cli cli = runner::Cli::parse(argc, argv);
  stamp::SuiteParams params;
  params.scale = cli.scale_or(params.scale);
  runner::BenchReport report("table4_workloads");

  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  std::vector<runner::RunPoint> points;
  std::vector<std::string> names;
  for (stamp::AppId app : stamp::all_apps()) {
    points.push_back(runner::RunPoint{app, cfg, params});
    names.push_back(std::string("suv/") + stamp::app_name(app));
  }
  const auto results = cli.run_matrix(points, names, report);

  std::printf("Table IV analogue: measured workload characteristics "
              "(SUV-TM, scale=%.2f)\n\n", params.scale);
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"app", "commits", "avg tx length (cycles)",
                  "tx stores/commit", "abort ratio", "contention (paper)"});
  const auto& hc = stamp::high_contention_apps();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double len = r.htm.commits
                           ? static_cast<double>(r.breakdown.get(
                                 sim::Bucket::kTrans)) /
                                 static_cast<double>(r.htm.commits)
                           : 0.0;
    const double stores =
        r.htm.commits ? static_cast<double>(r.vm.tx_stores) /
                            static_cast<double>(r.htm.commits + r.htm.aborts)
                      : 0.0;
    const bool high =
        std::find(hc.begin(), hc.end(), points[i].app) != hc.end();
    rows.push_back({r.app, runner::fmt_u64(r.htm.commits),
                    runner::fmt_fixed(len, 0), runner::fmt_fixed(stores, 1),
                    runner::fmt_fixed(100.0 * r.htm.abort_ratio(), 1) + "%",
                    high ? "High" : "Low"});
  }
  std::printf("%s\n", runner::render_table(rows).c_str());
  std::printf("paper Table IV lengths (instructions): ssca2 21 < kmeans 106 "
              "< intruder 237 <\ngenome 1.7K < vacation 2.1K < yada 6.8K < "
              "bayes 43K < labyrinth 317K; the measured\ncycle lengths should "
              "preserve that ordering.\n");

  report.set("scale", params.scale);
  report.write();
  return 0;
}
