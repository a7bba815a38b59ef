// Ablation bench for the design choices DESIGN.md calls out: how sensitive
// the headline result (SUV-TM vs LogTM-SE / FasTM) is to
//  (1) the LogTM-SE software-abort cost model,
//  (2) SUV's speculation on redirect-table misses (mis-speculation penalty),
//  (3) the summary signature size (false-filter pressure),
//  (4) the Bloom signature size (false-conflict pressure, all schemes).
//
// Usage: bench_ablation_costs [scale] [--jobs N] [--check] [--metrics]
//   (--trace is accepted for flag uniformity but ignored: the sweep runs
//    hundreds of simulations, far too many for one useful trace file.)
#include <cstdio>
#include <cstdlib>

#include "runner/cli.hpp"
#include "runner/tables.hpp"

using namespace suvtm;

namespace {

/// Suite-sum makespan and aborts of one scheme x config over every app.
struct SuiteSum {
  std::uint64_t cycles = 0;
  std::uint64_t aborts = 0;
};

/// Every sweep below runs from one flat matrix: push_suite appends one
/// point per app in sweep order, and next_suite consumes the results in the
/// same order.
void push_suite(std::vector<runner::RunPoint>& points, sim::Scheme scheme,
                sim::SimConfig cfg, const stamp::SuiteParams& params) {
  cfg.scheme = scheme;
  for (stamp::AppId app : stamp::all_apps()) {
    points.push_back(runner::RunPoint{app, cfg, params});
  }
}

SuiteSum next_suite(const std::vector<runner::RunResult>& results,
                    std::size_t& idx) {
  SuiteSum s;
  for (std::size_t a = 0; a < stamp::all_apps().size(); ++a) {
    s.cycles += results[idx].makespan;
    s.aborts += results[idx++].htm.aborts;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  runner::Cli cli = runner::Cli::parse(argc, argv);
  if (cli.tracing()) {
    std::fprintf(stderr, "warning: --trace is ignored by this sweep bench "
                         "(too many runs for one trace)\n");
    cli.trace_path.clear();
  }
  stamp::SuiteParams params;
  params.scale = cli.scale_or(0.25);  // sweeps are pricey

  // Past ~300 cycles the genome/intruder abort cascade diverges (the
  // paper's vicious cycle taken to its logical end), so the trap sweep
  // stops inside the stable regime.
  const Cycle traps[] = {50, 100, 200, 300};
  const Cycle penalties[] = {0, 50, 100, 400};
  const std::uint32_t summary_bits[] = {512, 1024, 2048, 8192};
  const std::uint32_t signature_bits[] = {512, 2048, 8192};
  const sim::Scheme signature_schemes[] = {
      sim::Scheme::kLogTmSe, sim::Scheme::kFasTm, sim::Scheme::kSuv};
  const sim::ConflictPolicy policies[] = {
      sim::ConflictPolicy::kRequesterStalls,
      sim::ConflictPolicy::kRequesterWins};

  std::vector<runner::RunPoint> points;
  for (Cycle trap : traps) {
    sim::SimConfig cfg;
    cfg.htm.abort_trap_latency = trap;
    push_suite(points, sim::Scheme::kLogTmSe, cfg, params);
    push_suite(points, sim::Scheme::kSuv, cfg, params);
  }
  for (Cycle pen : penalties) {
    sim::SimConfig cfg;
    cfg.suv.misspeculation_penalty = pen;
    push_suite(points, sim::Scheme::kSuv, cfg, params);
  }
  for (std::uint32_t bits : summary_bits) {
    sim::SimConfig cfg;
    cfg.suv.summary_signature_bits = bits;
    push_suite(points, sim::Scheme::kSuv, cfg, params);
  }
  for (std::uint32_t bits : signature_bits) {
    sim::SimConfig cfg;
    cfg.htm.signature_bits = bits;
    for (sim::Scheme s : signature_schemes) push_suite(points, s, cfg, params);
  }
  for (sim::ConflictPolicy policy : policies) {
    sim::SimConfig cfg;
    cfg.htm.conflict_policy = policy;
    push_suite(points, sim::Scheme::kSuv, cfg, params);
  }
  runner::BenchReport report("ablation_costs");
  const auto results = cli.run_matrix(points, {}, report);
  std::size_t idx = 0;

  std::printf("Ablation: headline sensitivity to cost-model choices "
              "(suite-sum cycles, scale=%.2f)\n\n", params.scale);

  // (1) LogTM-SE abort-trap cost.
  std::printf("(1) LogTM-SE software abort trap cost\n");
  std::vector<std::vector<std::string>> t1;
  t1.push_back({"trap cycles", "LogTM-SE", "SUV-TM", "SUV speedup"});
  for (Cycle trap : traps) {
    const std::uint64_t l = next_suite(results, idx).cycles;
    const std::uint64_t s = next_suite(results, idx).cycles;
    t1.push_back({runner::fmt_u64(trap), runner::fmt_u64(l),
                  runner::fmt_u64(s),
                  runner::fmt_fixed(100.0 * (static_cast<double>(l) / s - 1.0),
                                    1) + "%"});
  }
  std::printf("%s\n", runner::render_table(t1).c_str());

  // (2) SUV mis-speculation penalty.
  std::printf("(2) SUV mis-speculation penalty (redirect-table miss)\n");
  std::vector<std::vector<std::string>> t2;
  t2.push_back({"penalty cycles", "SUV-TM suite cycles"});
  for (Cycle pen : penalties) {
    t2.push_back({runner::fmt_u64(pen),
                  runner::fmt_u64(next_suite(results, idx).cycles)});
  }
  std::printf("%s\n", runner::render_table(t2).c_str());

  // (3) Summary signature size.
  std::printf("(3) redirect summary signature size\n");
  std::vector<std::vector<std::string>> t3;
  t3.push_back({"bits", "SUV-TM suite cycles"});
  for (std::uint32_t bits : summary_bits) {
    t3.push_back({runner::fmt_u64(bits),
                  runner::fmt_u64(next_suite(results, idx).cycles)});
  }
  std::printf("%s\n", runner::render_table(t3).c_str());

  // (4) Read/write signature size (false conflicts, affects every scheme).
  std::printf("(4) read/write Bloom signature size\n");
  std::vector<std::vector<std::string>> t4;
  t4.push_back({"bits", "LogTM-SE", "FasTM", "SUV-TM"});
  for (std::uint32_t bits : signature_bits) {
    std::vector<std::string> row = {runner::fmt_u64(bits)};
    for (std::size_t s = 0; s < std::size(signature_schemes); ++s) {
      row.push_back(runner::fmt_u64(next_suite(results, idx).cycles));
    }
    t4.push_back(row);
  }
  std::printf("%s\n", runner::render_table(t4).c_str());

  // (5) Conflict-resolution policy (paper Section III's alternative:
  // requester-wins dooms the holder instead of stalling the requester).
  std::printf("(5) conflict-resolution policy (SUV-TM)\n");
  std::vector<std::vector<std::string>> t5;
  t5.push_back({"policy", "suite cycles", "aborts"});
  for (sim::ConflictPolicy policy : policies) {
    const SuiteSum sum = next_suite(results, idx);
    t5.push_back({policy == sim::ConflictPolicy::kRequesterStalls
                      ? "requester-stalls (paper default)"
                      : "requester-wins (paper alternative)",
                  runner::fmt_u64(sum.cycles), runner::fmt_u64(sum.aborts)});
  }
  std::printf("%s\n", runner::render_table(t5).c_str());

  report.set("scale", params.scale);
  report.write();
  return 0;
}
