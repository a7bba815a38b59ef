// The simulator's own performance gates: four A/B rows, each measured by
// the repository benchmark's one estimator (repobench::ab_compare:
// interleaved ABBA rounds, reported as the median over rounds with its min
// and max) and written to BENCH_micro_structures.json.
//   - calendar_vs_heap_speedup: the calendar-queue scheduler vs the
//     binary-heap scheduler it replaced, on simulator-shaped churn of
//     Wakeable records, on process CPU time. CI perf-smoke gates it at
//     >= 2x.
//   - pdes_speedup_4threads: one 64-core 4-shard machine driven by 1 vs 4
//     host threads, on wall time (DESIGN.md section 14). Every run's
//     RunResult must equal a 1-thread reference run's (pdes_bit_identical).
//     CI pdes-smoke gates bit-identity on a fresh smoke run, and the
//     committed speedup at >= 1.5x when pdes_host_cpus >= 4.
//   - checker_runtime_overhead_pct: the scheme x app matrix with the
//     correctness checker (src/check) off vs on, on process CPU time, one
//     ABBA unit per matrix point. CI perf-smoke gates it at <= 40%.
//   - obs_runtime_overhead_pct: the same matrix with observability (src/obs)
//     off vs trace + metrics on, the checker off in both arms. CI
//     perf-smoke gates it at <= 6%.
// Each gated median has <key>_min and <key>_max beside it.
//
// End-to-end simulator throughput and the per-layer costs are measured by
// the repository benchmark (repobench/).
//
// Usage: bench_micro_structures [--smoke]
//   --smoke runs shorter rows (seconds, not tens of seconds) for CI and
//   ctest. The exit code is 1 when any PDES run's RunResult differs from
//   the reference run's.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"  // repobench's clocks and A/B estimator
#include "check/check.hpp"
#include "obs/trace.hpp"
#include "runner/bench_report.hpp"
#include "runner/cli.hpp"
#include "runner/experiment.hpp"
#include "sim/config.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "stamp/sharded_kv.hpp"

using namespace suvtm;

namespace {

// The binary-heap scheduler the calendar queue replaced, in shape: a
// hand-rolled min-heap of (t, seq, record) POD keys -- the head-to-head the
// CI perf-smoke job gates on. Like the simulator's own events, its
// payloads are Wakeable records.
class BaselineHeapScheduler {
 public:
  Cycle now() const { return now_; }

  void wake_after(Cycle delay, sim::Wakeable& w) {
    heap_.emplace_back();  // reserve the hole; sift_up fills it
    sift_up(heap_.size() - 1, Key{now_ + delay, seq_++, &w});
  }

  bool run(Cycle limit) {
    while (!heap_.empty()) {
      if (heap_.front().t > limit) return false;
      const Key k = pop_min();
      now_ = k.t;
      ++events_;
      k.w->on_wake();
    }
    return true;
  }

  std::uint64_t events_processed() const { return events_; }

 private:
  struct Key {
    Cycle t;
    std::uint64_t seq;
    sim::Wakeable* w;

    bool before(const Key& o) const {
      return t != o.t ? t < o.t : seq < o.seq;
    }
  };

  void sift_up(std::size_t i, Key k) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!k.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  Key pop_min() {
    const Key min = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
        if (!heap_[child].before(last)) break;
        heap_[i] = heap_[child];
        i = child;
      }
      heap_[i] = last;
    }
    return min;
  }

  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::vector<Key> heap_;
};

// Simulator-shaped event churn: kChains Wakeable records (one per
// simulated core plus mesh traffic), each re-arming itself 1..8 cycles
// ahead, as a core's retry and completion wakes do.
template <class Sched>
std::uint64_t scheduler_churn(std::uint64_t target_events) {
  Sched s;
  constexpr int kChains = 64;
  std::uint64_t processed = 0;
  struct Chain final : sim::Wakeable {
    Sched* s;
    std::uint64_t* processed;
    std::uint64_t limit;
    std::uint64_t x;
    Chain(Sched* sc, std::uint64_t* p, std::uint64_t l, std::uint64_t seed)
        : s(sc), processed(p), limit(l), x(seed) {}
    void on_wake() override {
      if (*processed >= limit) return;
      ++*processed;
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      s->wake_after(1 + (x >> 61), *this);
    }
  };
  std::vector<Chain> chains;
  chains.reserve(kChains);
  for (int i = 0; i < kChains; ++i) {
    chains.emplace_back(&s, &processed, target_events,
                        0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(i));
    s.wake_after(static_cast<Cycle>(i), chains.back());
  }
  s.run(~Cycle{0});
  return processed;
}

/// Sets `key` to `f` of the median B/A ratio and `key_min`/`key_max` to
/// `f` of the extreme rounds (a decreasing `f` swaps them), and prints
/// the row.
template <class F>
void set_row(runner::BenchReport& report, const std::string& key,
             const repobench::AbResult& r, F f) {
  const double lo = std::min(f(r.min), f(r.max));
  const double hi = std::max(f(r.min), f(r.max));
  report.set(key, f(r.median));
  report.set(key + "_min", lo);
  report.set(key + "_max", hi);
  std::printf("  %s = %.2f (min %.2f, max %.2f) over %d ABBA rounds\n",
              key.c_str(), f(r.median), lo, hi, r.rounds);
}

double speedup(double ratio) { return ratio > 0 ? 1.0 / ratio : 0.0; }
double overhead_pct(double ratio) { return (ratio - 1.0) * 100.0; }

/// The binary heap (A) vs the calendar queue (B) on identical churn.
void scheduler_row(runner::BenchReport& report, bool smoke) {
  const std::uint64_t events = smoke ? 500'000 : 2'000'000;
  scheduler_churn<BaselineHeapScheduler>(events / 10);  // warm allocators
  scheduler_churn<sim::Scheduler>(events / 10);
  const repobench::AbResult r = repobench::ab_compare(
      1, [&](std::size_t) { scheduler_churn<BaselineHeapScheduler>(events); },
      [&](std::size_t) { scheduler_churn<sim::Scheduler>(events); },
      smoke ? 5 : 9, repobench::AbClock::kProcessCpu);
  std::printf("\nscheduler: calendar queue vs binary heap (%llu events a "
              "run, CPU time):\n", static_cast<unsigned long long>(events));
  set_row(report, "calendar_vs_heap_speedup", r, speedup);
}

/// Intra-run shard parallelism (conservative PDES): one 64-simulated-core
/// machine (8x8 mesh, 4 shards, SUV) running the sharded_kv kernel with 1
/// (A) vs 4 (B) host threads. Host threads are a pure execution knob, so
/// every run's RunResult must equal the 1-thread reference's; returns
/// whether all did. The row records the host's CPU count: below 4 CPUs the
/// speedup measures scheduling overhead, not parallelism, so the CI gate
/// applies only when pdes_host_cpus >= 4.
bool pdes_row(runner::BenchReport& report, bool smoke) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  cfg.mem.num_cores = 64;
  cfg.mem.mesh_dim = 8;
  cfg.pdes.shards = 4;
  cfg.check.enabled = false;  // times the machine whatever SUVTM_CHECK says

  stamp::ShardedKvParams p;
  p.ops_per_thread = smoke ? 200 : 4000;
  p.txn_keys = 128;
  p.keys_per_txn = 4;
  p.remote_read_every = 8;

  const auto run = [&](std::uint32_t host_threads) {
    sim::SimConfig c = cfg;
    c.pdes.host_threads = host_threads;
    sim::Simulator sim(c);
    stamp::ShardedKv wl(p);
    wl.build(sim);
    sim.run();
    wl.verify(sim);
    return runner::harvest_result(sim, "sharded_kv");
  };
  const runner::RunResult ref = run(1);
  bool identical = true;
  const repobench::AbResult r = repobench::ab_compare(
      1, [&](std::size_t) { identical &= run(1) == ref; },
      [&](std::size_t) { identical &= run(4) == ref; }, smoke ? 3 : 5,
      repobench::AbClock::kWall);
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("\nintra-run PDES: sharded_kv, 64 cores, 4 shards, SUV, "
              "1 vs 4 host threads (%llu events a run, wall time):\n",
              static_cast<unsigned long long>(ref.sim_events));
  set_row(report, "pdes_speedup_4threads", r, speedup);
  std::printf("  bit-identical: %s\n", identical ? "yes" : "NO");
  if (host_cpus < 4) {
    std::printf("  note: only %u host CPU(s) -- the speedup row measures "
                "overhead, not parallelism, on this host\n", host_cpus);
  }
  report.set("pdes_host_cpus", host_cpus);
  report.set("pdes_bit_identical",
             static_cast<std::uint64_t>(identical ? 1 : 0));
  return identical;
}

/// The matrix the checker and obs rows time: 3 schemes x 8 apps on 16
/// cores at scale 0.25 with the checker and obs off (A) vs the same points
/// after `enable` (B), one ABBA unit per matrix point, on process CPU time.
/// Both arms take the run's trace, as a traced harness would. Prints the
/// row heading, naming `what`.
repobench::AbResult matrix_ab(const char* what,
                              void (*enable)(sim::SimConfig&), int rounds) {
  stamp::SuiteParams params;
  params.scale = 0.25;
  std::vector<runner::RunPoint> off, on;
  for (sim::Scheme s :
       {sim::Scheme::kLogTmSe, sim::Scheme::kFasTm, sim::Scheme::kSuv}) {
    sim::SimConfig cfg;
    cfg.scheme = s;
    cfg.mem.num_cores = 16;
    cfg.check.enabled = false;
    sim::SimConfig b = cfg;
    enable(b);
    for (stamp::AppId app : stamp::all_apps()) {
      off.push_back(runner::RunPoint{app, cfg, params});
      on.push_back(runner::RunPoint{app, b, params});
    }
  }
  runner::run_matrix(off, 1);  // warm
  runner::run_matrix(on, 1);
  const auto run = [](const runner::RunPoint& pt) {
    obs::TraceData trace;
    runner::run_app(pt.app, pt.cfg, pt.params, &trace);
  };
  const repobench::AbResult r = repobench::ab_compare(
      off.size(), [&](std::size_t i) { run(off[i]); },
      [&](std::size_t i) { run(on[i]); }, rounds,
      repobench::AbClock::kProcessCpu);
  std::printf("\n%s (%zu-point scheme x app matrix, 16 cores, scale 0.25, "
              "CPU time):\n", what, off.size());
  return r;
}

/// Runtime cost of the correctness checker: cfg.check.enabled off (A) vs
/// on (B), at the default checked configuration (sampled structural audits
/// plus always-on abort audits; the history oracle always runs). The "off"
/// arm is the default path: every hook gated on a null Checker pointer.
void checker_row(runner::BenchReport& report, bool smoke) {
  report.set("check_hooks_compiled",
             static_cast<std::uint64_t>(check::kHooksCompiled ? 1 : 0));
  const int rounds = smoke ? 3 : 5;
  const repobench::AbResult r = matrix_ab(
      "checker: off vs on",
      [](sim::SimConfig& c) { c.check.enabled = true; }, rounds);
  set_row(report, "checker_runtime_overhead_pct", r, overhead_pct);
  report.set("checker_overhead_rounds", static_cast<std::uint64_t>(rounds));
}

/// Runtime cost of observability: obs off (A) vs trace + metrics on (B),
/// with trace_mem at its default (off). The "off" arm is the default path:
/// every hook gated on a null Recorder pointer.
void obs_row(runner::BenchReport& report, bool smoke) {
  const repobench::AbResult r = matrix_ab(
      "obs: off vs trace + metrics on",
      [](sim::SimConfig& c) {
        c.obs.trace = true;
        c.obs.metrics = true;
      },
      smoke ? 3 : 5);
  set_row(report, "obs_runtime_overhead_pct", r, overhead_pct);
}

}  // namespace

int main(int argc, char** argv) {
  // Every row configures its runs explicitly, so only --smoke has an
  // effect here.
  const runner::Cli cli = runner::Cli::parse(argc, argv);
  runner::BenchReport report("micro_structures");
  scheduler_row(report, cli.smoke);
  const bool identical = pdes_row(report, cli.smoke);
  checker_row(report, cli.smoke);
  obs_row(report, cli.smoke);
  report.write();
  return identical ? 0 : 1;
}
