// Figure 8: second-level redirect-table sensitivity.
//  (a) execution time vs table size    (paper: flat beyond 16K entries)
//  (b) execution time vs table latency (paper: degrades past ~10 cycles;
//      zero latency buys < 5%)
//
// Usage: bench_fig8_l2_table [scale] [--jobs N] [--check]
//            [--trace out.json] [--metrics]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner/cli.hpp"
#include "runner/tables.hpp"

using namespace suvtm;

namespace {

constexpr std::uint64_t kSeeds[] = {42, 43, 44};

// Append one suite run per seed for this config to the flat point list.
void push_config(std::vector<runner::RunPoint>& points,
                 std::vector<std::string>& names, const char* label,
                 const sim::SimConfig& cfg,
                 const stamp::SuiteParams& params) {
  for (std::uint64_t seed : kSeeds) {
    stamp::SuiteParams p = params;
    p.seed = seed;
    for (stamp::AppId app : stamp::all_apps()) {
      points.push_back(runner::RunPoint{app, cfg, p});
      names.push_back(std::string(label) + "/s" + std::to_string(seed) + "/" +
                      stamp::app_name(app));
    }
  }
}

// Seed-averaged suite makespan for the next seeds x apps block of results.
std::uint64_t pop_total(const std::vector<runner::RunResult>& flat,
                        std::size_t& idx) {
  std::uint64_t total = 0;
  for (std::size_t run = 0; run < std::size(kSeeds) * stamp::all_apps().size();
       ++run) {
    total += flat[idx++].makespan;
  }
  return total / std::size(kSeeds);
}

}  // namespace

int main(int argc, char** argv) {
  const runner::Cli cli = runner::Cli::parse(argc, argv);
  stamp::SuiteParams params;
  params.scale = cli.scale_or(params.scale);
  runner::BenchReport report("fig8_l2_table");

  std::printf("Figure 8: second-level redirect table sensitivity "
              "(SUV-TM, scale=%.2f)\n\n", params.scale);

  const std::uint32_t sizes[] = {2048, 4096, 8192, 16384, 32768, 65536};
  const Cycle lats[] = {0, 5, 10, 20, 40};

  // Both sweeps in one flat matrix so no host thread idles between them.
  std::vector<runner::RunPoint> points;
  std::vector<std::string> names;
  for (std::uint32_t s : sizes) {
    sim::SimConfig cfg;
    cfg.scheme = sim::Scheme::kSuv;
    cfg.suv.l2_table_entries = s;
    push_config(points, names, (std::to_string(s) + "e").c_str(), cfg, params);
  }
  for (Cycle lat : lats) {
    sim::SimConfig cfg;
    cfg.scheme = sim::Scheme::kSuv;
    cfg.suv.l2_table_latency = lat;
    push_config(points, names, (std::to_string(lat) + "cyc").c_str(), cfg,
                params);
  }
  const auto flat = cli.run_matrix(points, names, report);
  std::size_t idx = 0;

  // (a) size sweep at the default 10-cycle latency.
  std::uint64_t base_size = 0;
  std::vector<std::uint64_t> totals_a;
  for (std::uint32_t s : sizes) {
    const std::uint64_t t = pop_total(flat, idx);
    totals_a.push_back(t);
    if (s == 16384) base_size = t;
  }
  std::vector<std::vector<std::string>> rows_a;
  rows_a.push_back({"entries", "exec cycles (suite sum)", "normalized to 16K"});
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    rows_a.push_back({runner::fmt_u64(sizes[i]), runner::fmt_u64(totals_a[i]),
                      runner::fmt_fixed(static_cast<double>(totals_a[i]) /
                                            static_cast<double>(base_size),
                                        3)});
  }
  std::printf("(a) size sweep, latency = 10 cycles\n%s\n",
              runner::render_table(rows_a).c_str());

  // (b) latency sweep at the default 16K entries.
  std::uint64_t base_lat = 0;
  std::vector<std::uint64_t> totals_b;
  for (Cycle lat : lats) {
    const std::uint64_t t = pop_total(flat, idx);
    totals_b.push_back(t);
    if (lat == 10) base_lat = t;
  }
  std::vector<std::vector<std::string>> rows_b;
  rows_b.push_back({"latency (cycles)", "exec cycles (suite sum)",
                    "normalized to 10"});
  for (std::size_t i = 0; i < std::size(lats); ++i) {
    rows_b.push_back({runner::fmt_u64(lats[i]), runner::fmt_u64(totals_b[i]),
                      runner::fmt_fixed(static_cast<double>(totals_b[i]) /
                                            static_cast<double>(base_lat),
                                        3)});
  }
  std::printf("(b) latency sweep, 16K entries\n%s\n",
              runner::render_table(rows_b).c_str());
  std::printf("expected shape: little gain beyond 16K entries; execution "
              "time rises\nsharply past ~10 cycles while zero latency buys "
              "< 5%% (paper Figure 8).\n");

  report.set("scale", params.scale);
  report.write();
  return 0;
}
