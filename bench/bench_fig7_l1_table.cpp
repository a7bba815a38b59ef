// Figure 7: first-level redirect-table sensitivity.
//  (a) L1 table miss rate vs table size   (paper: high hit rate at 512)
//  (b) total execution time vs table size (paper: flat beyond 512)
//
// Usage: bench_fig7_l1_table [scale] [--jobs N] [--check]
//            [--trace out.json] [--metrics]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner/cli.hpp"
#include "runner/tables.hpp"

using namespace suvtm;

int main(int argc, char** argv) {
  const runner::Cli cli = runner::Cli::parse(argc, argv);
  stamp::SuiteParams params;
  params.scale = cli.scale_or(params.scale);
  runner::BenchReport report("fig7_l1_table");

  const std::uint32_t sizes[] = {64, 128, 256, 512, 1024, 2048};
  const std::uint64_t seeds[] = {42, 43, 44};

  std::printf("Figure 7: first-level redirect table sensitivity "
              "(SUV-TM, scale=%.2f)\n\n", params.scale);
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"entries", "miss rate (a)", "exec cycles, suite sum (b)",
                  "normalized to 512"});

  // One flat size x seed x app matrix; seeds smooth contention noise.
  std::vector<runner::RunPoint> points;
  std::vector<std::string> names;
  for (std::uint32_t size : sizes) {
    sim::SimConfig cfg;
    cfg.scheme = sim::Scheme::kSuv;
    cfg.suv.l1_table_entries = size;
    for (std::uint64_t seed : seeds) {
      stamp::SuiteParams p = params;
      p.seed = seed;
      for (stamp::AppId app : stamp::all_apps()) {
        points.push_back(runner::RunPoint{app, cfg, p});
        names.push_back(std::to_string(size) + "e/s" + std::to_string(seed) +
                        "/" + stamp::app_name(app));
      }
    }
  }
  const auto flat = cli.run_matrix(points, names, report);

  std::vector<double> exec(std::size(sizes), 0.0);
  std::vector<double> miss(std::size(sizes), 0.0);
  double exec512 = 0.0;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    std::uint64_t lookups = 0, misses = 0, total = 0;
    for (std::size_t run = 0; run < std::size(seeds) * stamp::all_apps().size();
         ++run) {
      const auto& r = flat[idx++];
      lookups += r.table.l1_hits + r.table.l1_misses;
      misses += r.table.l1_misses;
      total += r.makespan;
    }
    miss[i] = lookups ? static_cast<double>(misses) / lookups : 0.0;
    exec[i] = static_cast<double>(total) / std::size(seeds);
    if (sizes[i] == 512) exec512 = exec[i];
  }
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    rows.push_back({runner::fmt_u64(sizes[i]),
                    runner::fmt_fixed(100.0 * miss[i], 2) + "%",
                    runner::fmt_fixed(exec[i], 0),
                    runner::fmt_fixed(exec[i] / exec512, 3)});
  }
  std::printf("%s\n", runner::render_table(rows).c_str());
  std::printf("expected shape: miss rate falls steeply to 512 entries, then "
              "flattens;\nexecution time improves little beyond 512 "
              "(paper Figure 7).\n");

  report.set("scale", params.scale);
  report.write();
  return 0;
}
