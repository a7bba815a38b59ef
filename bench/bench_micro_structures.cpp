// Host-level micro-benchmarks (google-benchmark) of the hot simulator
// structures: Bloom signatures, the summary signature, the redirect table,
// the cache tag array and the event scheduler. These guard the simulator's
// own performance -- full-suite experiment time is dominated by exactly
// these operations.
//
// Besides the google-benchmark suite, main() runs fixed head-to-heads and
// writes them to BENCH_micro_structures.json:
//   - the calendar-queue scheduler vs the binary-heap scheduler it
//     replaced (SmallFn slot-pool min-heap), on simulator-shaped churn;
//   - the flat containers (LineSet / FlatMap) vs the node-based
//     std::unordered_set/map they replaced, on footprint- and
//     redo-log-shaped churn;
//   - the intra-run PDES head-to-head: one 64-core 4-shard machine driven
//     by 1 vs 4 host threads (events/sec both ways, speedup, and a
//     bit-identity verdict -- see DESIGN.md section 14);
//   - the correctness checker's (src/check) overhead: the same matrix with
//     checking off and on, as an ABBA CPU-time ratio.
// End-to-end simulator throughput and the observability overhead are
// measured by the repository benchmark (repobench/: events_per_s and
// obs.overhead_pct).
//
// Usage: bench_micro_structures [gbench args] [--smoke]
//   --smoke runs only the scheduler head-to-head, a small PDES
//   bit-identity run and the checker-overhead measurement (seconds, not
//   minutes) and still writes the JSON report -- the CI perf-smoke job
//   gates on its calendar_vs_heap_speedup and checker_runtime_overhead_pct
//   rows and pdes-smoke on its pdes_bit_identical row.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "check/check.hpp"
#include "common/flat_hash.hpp"
#include "stamp/sharded_kv.hpp"
#include "common/rng.hpp"
#include "htm/signature.hpp"
#include "mem/cache.hpp"
#include "runner/bench_report.hpp"
#include "runner/cli.hpp"
#include "runner/experiment.hpp"
#include "sim/config.hpp"
#include "sim/scheduler.hpp"
#include "suv/redirect_table.hpp"
#include "suv/summary_signature.hpp"

using namespace suvtm;

namespace {

// The PR 5 scheduler, verbatim in shape: a hand-rolled binary min-heap of
// (t, seq, slot) POD keys over a free-listed SmallFn slot pool. This is the
// binary-heap baseline the calendar queue replaced -- the head-to-head the
// CI perf-smoke job gates on.
class BaselineHeapScheduler {
 public:
  Cycle now() const { return now_; }

  void at(Cycle t, sim::SmallFn fn) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(fn);
    }
    heap_.emplace_back();  // reserve the hole; sift_up fills it
    sift_up(heap_.size() - 1, Key{t, seq_++, slot});
  }

  void after(Cycle delay, sim::SmallFn fn) { at(now_ + delay, std::move(fn)); }

  bool run(Cycle limit) {
    while (!heap_.empty()) {
      if (heap_.front().t > limit) return false;
      const Key k = pop_min();
      sim::SmallFn fn = std::move(slots_[k.slot]);
      free_slots_.push_back(k.slot);
      now_ = k.t;
      ++events_;
      fn();
    }
    return true;
  }

  std::uint64_t events_processed() const { return events_; }

 private:
  struct Key {
    Cycle t;
    std::uint64_t seq;
    std::uint32_t slot;

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
  std::vector<sim::SmallFn> slots_;
  std::vector<std::uint32_t> free_slots_;
};

// Simulator-shaped event churn: kChains self-rescheduling handlers (one per
// simulated core plus mesh traffic) whose captures match the hot
// [this, &aw, h] lambdas in ThreadContext (24 bytes).
template <class Sched>
std::uint64_t scheduler_churn(std::uint64_t target_events) {
  Sched s;
  constexpr int kChains = 64;
  std::uint64_t processed = 0;
  struct Chain {
    Sched* s;
    std::uint64_t* processed;
    std::uint64_t limit;
    std::uint64_t x;
    void operator()() {
      if (*processed >= limit) return;
      ++*processed;
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      s->after(1 + (x >> 61), Chain{*this});
    }
  };
  static_assert(sizeof(Chain) == 32, "capture should model the hot lambdas");
  for (int i = 0; i < kChains; ++i) {
    s.after(static_cast<Cycle>(i),
            Chain{&s, &processed, target_events,
                  0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(i)});
  }
  s.run(~Cycle{0});
  return processed;
}

// Transaction-footprint churn, shaped like one txn attempt in the VM hot
// path (paper Table IV: write sets of tens of lines, reads outnumbering
// writes ~2:1, every access membership-probing both sets): build a 40-line
// write set and an 80-access read set with duplicate hits, then clear.
// Works on LineSet and std::unordered_set<LineAddr> alike.
template <class Set>
std::uint64_t footprint_churn(std::uint64_t rounds) {
  Set reads, writes;
  std::uint64_t x = 0x243f6a8885a308d3ull;
  std::uint64_t acc = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (int i = 0; i < 40; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const LineAddr l = (x >> 12) & 0x3ff;  // 1K-line region -> some dups
      acc += writes.contains(l);
      writes.insert(l);
      for (int j = 0; j < 2; ++j) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const LineAddr rl = (x >> 12) & 0x3ff;
        acc += reads.contains(rl) + writes.contains(rl);
        reads.insert(rl);
      }
    }
    reads.clear();
    writes.clear();
  }
  return acc;
}
// insert+contains ops per round of the loop above (40 + 80 inserts,
// 40 + 160 membership probes).
constexpr std::uint64_t kFootprintOpsPerRound = 320;

// Redo-log / page-map churn: try_emplace-or-overwrite plus lookups over a
// 1K-key working set, cleared per round (commit/abort). Works on
// FlatMap<u64,u64> and std::unordered_map<u64,u64> alike.
template <class Map>
std::uint64_t map_churn(std::uint64_t rounds) {
  Map m;
  std::uint64_t x = 0x452821e638d01377ull;
  std::uint64_t acc = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (int i = 0; i < 64; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      auto [it, inserted] = m.try_emplace((x >> 20) & 0x3ff, x);
      if (!inserted) it->second = x;
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      auto f = m.find((x >> 20) & 0x3ff);
      if (f != m.end()) acc += f->second;
    }
    m.clear();
  }
  return acc;
}
constexpr std::uint64_t kMapOpsPerRound = 128;

void BM_SignatureAdd(benchmark::State& state) {
  htm::Signature sig(2048, 2);
  Rng rng(1);
  for (auto _ : state) {
    sig.add(rng.next() >> 6);
    if (sig.adds() > 4096) sig.clear();
  }
}
BENCHMARK(BM_SignatureAdd);

void BM_SignatureTest(benchmark::State& state) {
  htm::Signature sig(2048, 2);
  Rng rng(2);
  for (int i = 0; i < 256; ++i) sig.add(rng.next() >> 6);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    hits += sig.test(rng.next() >> 6);
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_SignatureTest);

void BM_SummarySignatureAddRemove(benchmark::State& state) {
  suv::SummarySignature sum(2048, 2);
  Rng rng(3);
  for (auto _ : state) {
    const LineAddr l = rng.next() >> 6;
    sum.add(l);
    sum.remove(l);
  }
}
BENCHMARK(BM_SummarySignatureAddRemove);

void BM_RedirectTableLookupHit(benchmark::State& state) {
  sim::SuvParams p;
  suv::RedirectTable table(p, 16);
  Rng rng(4);
  std::vector<LineAddr> lines;
  for (int i = 0; i < 256; ++i) {
    const LineAddr l = rng.next() >> 40;
    if (table.find(l)) continue;
    lines.push_back(l);
    table.insert_transient(
        {l, l + (1ull << 34), suv::EntryState::kTxnRedirect, 0});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto res = table.lookup(0, lines[i++ % lines.size()]);
    benchmark::DoNotOptimize(res.entry);
  }
}
BENCHMARK(BM_RedirectTableLookupHit);

void BM_RedirectTableLookupFiltered(benchmark::State& state) {
  sim::SuvParams p;
  suv::RedirectTable table(p, 16);
  Rng rng(5);
  for (auto _ : state) {
    auto res = table.lookup(0, rng.next() >> 6);
    benchmark::DoNotOptimize(res.entry);
  }
}
BENCHMARK(BM_RedirectTableLookupFiltered);

void BM_CacheAccessHit(benchmark::State& state) {
  mem::Cache cache(32 * 1024, 4);
  for (LineAddr l = 0; l < 256; ++l) cache.insert(l, mem::CohState::kShared);
  LineAddr l = 0;
  for (auto _ : state) {
    auto* ln = cache.find(l++ % 256);
    benchmark::DoNotOptimize(ln);
  }
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheInsertEvict(benchmark::State& state) {
  mem::Cache cache(32 * 1024, 4);
  Rng rng(6);
  for (auto _ : state) {
    auto v = cache.insert(rng.next() >> 6, mem::CohState::kModified);
    benchmark::DoNotOptimize(v.valid);
  }
}
BENCHMARK(BM_CacheInsertEvict);

void BM_FootprintChurnFlat(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(footprint_churn<LineSet>(100));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100 *
                          static_cast<std::int64_t>(kFootprintOpsPerRound));
}
BENCHMARK(BM_FootprintChurnFlat);

void BM_FootprintChurnNode(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        footprint_churn<std::unordered_set<LineAddr>>(100));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100 *
                          static_cast<std::int64_t>(kFootprintOpsPerRound));
}
BENCHMARK(BM_FootprintChurnNode);

void BM_MapChurnFlat(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        map_churn<FlatMap<std::uint64_t, std::uint64_t>>(100));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100 *
                          static_cast<std::int64_t>(kMapOpsPerRound));
}
BENCHMARK(BM_MapChurnFlat);

void BM_MapChurnNode(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        map_churn<std::unordered_map<std::uint64_t, std::uint64_t>>(100));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100 *
                          static_cast<std::int64_t>(kMapOpsPerRound));
}
BENCHMARK(BM_MapChurnNode);

void BM_SchedulerEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler_churn<sim::Scheduler>(100000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_SchedulerEventChurn);

/// Fixed head-to-head for the JSON report: events/sec through the calendar
/// queue and the binary heap it replaced on the identical churn workload.
/// The ratio is the row the CI perf-smoke job gates on (>= 2x).
void scheduler_report(runner::BenchReport& report, bool smoke) {
  const std::uint64_t kEvents = smoke ? 500'000 : 2'000'000;
  const auto timed = [&](auto tag) {
    using Sched = decltype(tag);
    scheduler_churn<Sched>(kEvents / 10);  // warm allocators/caches
    runner::WallTimer t;
    const std::uint64_t n = scheduler_churn<Sched>(kEvents);
    const double s = t.seconds();
    return s > 0 ? static_cast<double>(n) / s : 0.0;
  };

  const double eps_cal = timed(sim::Scheduler{});
  const double eps_heap = timed(BaselineHeapScheduler{});
  const double vs_heap = eps_heap > 0 ? eps_cal / eps_heap : 0.0;
  std::printf("\nscheduler head-to-head (%llu events):\n"
              "  calendar queue   : %12.0f events/s\n"
              "  binary heap      : %12.0f events/s\n"
              "  calendar vs heap : %.2fx\n",
              static_cast<unsigned long long>(kEvents), eps_cal, eps_heap,
              vs_heap);

  report.set("scheduler_events", kEvents);
  report.set("events_per_sec_calendar_queue", eps_cal);
  report.set("events_per_sec_binary_heap", eps_heap);
  report.set("calendar_vs_heap_speedup", vs_heap);
}

/// Fixed flat-vs-node container head-to-heads on the same churn workloads
/// the google-benchmark rows measure.
void container_report(runner::BenchReport& report) {
  constexpr std::uint64_t kRounds = 20'000;
  struct Row {
    const char* name;
    std::uint64_t ops_per_round;
    std::uint64_t (*flat)(std::uint64_t);
    std::uint64_t (*node)(std::uint64_t);
  };
  const Row rows[] = {
      {"footprint", kFootprintOpsPerRound, footprint_churn<LineSet>,
       footprint_churn<std::unordered_set<LineAddr>>},
      {"map", kMapOpsPerRound,
       map_churn<FlatMap<std::uint64_t, std::uint64_t>>,
       map_churn<std::unordered_map<std::uint64_t, std::uint64_t>>},
  };
  std::printf("\ncontainer head-to-heads (%llu rounds each):\n",
              static_cast<unsigned long long>(kRounds));
  for (const Row& row : rows) {
    row.flat(kRounds / 10);  // warm allocators/caches before timing
    row.node(kRounds / 10);
    runner::WallTimer tf;
    benchmark::DoNotOptimize(row.flat(kRounds));
    const double sf = tf.seconds();
    runner::WallTimer tn;
    benchmark::DoNotOptimize(row.node(kRounds));
    const double sn = tn.seconds();
    const double total = static_cast<double>(kRounds * row.ops_per_round);
    const double ops_flat = sf > 0 ? total / sf : 0.0;
    const double ops_node = sn > 0 ? total / sn : 0.0;
    const double ratio = ops_node > 0 ? ops_flat / ops_node : 0.0;
    std::printf("  %-9s: flat %12.0f ops/s   node %12.0f ops/s   %.2fx\n",
                row.name, ops_flat, ops_node, ratio);
    report.set(std::string(row.name) + "_ops_per_sec_flat", ops_flat);
    report.set(std::string(row.name) + "_ops_per_sec_node", ops_node);
    report.set(std::string(row.name) + "_container_speedup", ratio);
  }
}

/// Intra-run shard parallelism (conservative PDES): one 64-simulated-core
/// sharded machine (8x8 mesh, 4 shards, SUV) running the sharded_kv kernel
/// with 1 vs 4 host threads. Reports simulated events/sec for both, the
/// speedup, and whether the two runs' full RunResults were bit-identical
/// (they must be -- host threads are a pure execution knob). The report
/// also records the measuring host's CPU count: on a host with fewer than
/// 4 CPUs the speedup row measures scheduling overhead, not parallelism,
/// so consumers (the CI pdes-smoke gate, the README table) must treat it
/// as meaningful only when pdes_host_cpus >= 4. The CI job gates on
/// pdes_bit_identical from a fresh --smoke run unconditionally.
void pdes_report(runner::BenchReport& report, bool smoke) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  cfg.mem.num_cores = 64;
  cfg.mem.mesh_dim = 8;
  cfg.pdes.shards = 4;

  stamp::ShardedKvParams p;
  p.ops_per_thread = smoke ? 200 : 4000;
  p.txn_keys = 128;
  p.keys_per_txn = 4;
  p.remote_read_every = 8;

  const auto run_once = [&](std::uint32_t host_threads, double* secs) {
    cfg.pdes.host_threads = host_threads;
    sim::Simulator sim(cfg);
    stamp::ShardedKv wl(p);
    wl.build(sim);
    runner::WallTimer t;
    sim.run();
    *secs = t.seconds();
    wl.verify(sim);
    return runner::harvest_result(sim, "sharded_kv");
  };

  double warm = 0.0;
  run_once(4, &warm);  // warm allocators/caches (and thread start-up)
  double s1 = 0.0, s4 = 0.0;
  const runner::RunResult r1 = run_once(1, &s1);
  const runner::RunResult r4 = run_once(4, &s4);
  const bool identical = r1 == r4;
  const double eps1 = s1 > 0 ? static_cast<double>(r1.sim_events) / s1 : 0.0;
  const double eps4 = s4 > 0 ? static_cast<double>(r4.sim_events) / s4 : 0.0;
  const double speedup = eps1 > 0 ? eps4 / eps1 : 0.0;
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("\nintra-run PDES (sharded_kv, 64 cores, 4 shards, SUV):\n"
              "  1 host thread : %12.0f events/s\n"
              "  4 host threads: %12.0f events/s   (%.2fx)\n"
              "  bit-identical : %s\n",
              eps1, eps4, speedup, identical ? "yes" : "NO");
  if (host_cpus < 4) {
    std::printf("  note: only %u host CPU(s) -- the speedup row measures "
                "overhead, not parallelism, on this host\n", host_cpus);
  }
  report.set("pdes_host_cpus", static_cast<std::uint64_t>(host_cpus));
  report.set("pdes_sim_events", r1.sim_events);
  report.set("end_to_end_events_per_sec_pdes1", eps1);
  report.set("end_to_end_events_per_sec_pdes4", eps4);
  report.set("pdes_speedup_4threads", speedup);
  report.set("pdes_bit_identical",
             static_cast<std::uint64_t>(identical ? 1 : 0));
}

double cpu_seconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Runtime cost of the correctness checker (src/check): the same small
/// scheme x app matrix with cfg.check.enabled off and on, at the default
/// checked configuration (sampled structural audits plus always-on abort
/// audits; the history oracle's replay and conflict-ordering proofs are
/// always on). The "off" arm is the default path: every hook gated on a
/// null Checker pointer.
///
/// Methodology, built for noisy/throttling CI hosts: each round times the
/// matrix off, on, on, off (ABBA -- both arms see both positions, so
/// monotone drift within a round cancels), on CLOCK_PROCESS_CPUTIME_ID
/// (immune to descheduling), and the reported overhead is the MEDIAN of
/// the per-round on/off ratios (robust to frequency spikes). A naive
/// off-then-on wall-clock pair systematically inflates the ratio by
/// double-digit points on a throttling host because the second arm always
/// runs slower; this estimator is what the CI check-overhead gate asserts
/// against.
void checker_overhead_report(runner::BenchReport& report, int rounds) {
  report.set("check_hooks_compiled",
             static_cast<std::uint64_t>(check::kHooksCompiled ? 1 : 0));
  stamp::SuiteParams params;
  params.scale = 0.25;
  const auto matrix = [&](bool enabled) {
    std::vector<runner::RunPoint> points;
    for (sim::Scheme s : {sim::Scheme::kLogTmSe, sim::Scheme::kFasTm,
                          sim::Scheme::kSuv}) {
      sim::SimConfig cfg;
      cfg.scheme = s;
      cfg.mem.num_cores = 16;
      cfg.check.enabled = enabled;
      for (stamp::AppId app : stamp::all_apps()) {
        points.push_back(runner::RunPoint{app, cfg, params});
      }
    }
    return points;
  };
  const auto off_pts = matrix(false);
  const auto on_pts = matrix(true);
  runner::ParallelExecutor serial(1);
  std::uint64_t events = 0;
  for (const auto& r : runner::run_matrix(off_pts, serial)) {  // warm
    events += r.sim_events;
  }
  runner::run_matrix(on_pts, serial);  // warm
  std::vector<double> ratios;
  double off_min = 1e300, on_min = 1e300;
  for (int r = 0; r < rounds; ++r) {
    const double t0 = cpu_seconds();
    runner::run_matrix(off_pts, serial);
    const double t1 = cpu_seconds();
    runner::run_matrix(on_pts, serial);
    const double t2 = cpu_seconds();
    runner::run_matrix(on_pts, serial);
    const double t3 = cpu_seconds();
    runner::run_matrix(off_pts, serial);
    const double t4 = cpu_seconds();
    const double off = (t1 - t0) + (t4 - t3);
    const double on = (t2 - t1) + (t3 - t2);
    off_min = std::min(off_min, off);
    on_min = std::min(on_min, on);
    if (off > 0) ratios.push_back(on / off);
  }
  std::sort(ratios.begin(), ratios.end());
  const double ratio = ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
  const double overhead = (ratio - 1.0) * 100.0;
  // Each arm's time covers two matrix passes; min over rounds is the
  // least-interfered pass pair, so it anchors the absolute events/s rows.
  const double eps_off =
      off_min > 0 ? 2.0 * static_cast<double>(events) / off_min : 0.0;
  const double eps_on =
      on_min > 0 ? 2.0 * static_cast<double>(events) / on_min : 0.0;
  std::printf("\nchecker overhead (scheme x app matrix, 16 cores, "
              "scale 0.25, %d ABBA rounds, median CPU-time ratio):\n"
              "  check off: %10.0f events/s\n"
              "  check on : %10.0f events/s   (+%.1f%% run time)\n",
              rounds, eps_off, eps_on, overhead);
  report.set("events_per_sec_check_off", eps_off);
  report.set("events_per_sec_check_on", eps_on);
  report.set("checker_overhead_rounds", static_cast<std::uint64_t>(rounds));
  report.set("checker_runtime_overhead_pct", overhead);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the shared harness flags (google-benchmark rejects unknown
  // flags); every section configures its runs explicitly, so only
  // --smoke has an effect here.
  const runner::Cli cli = runner::Cli::parse(argc, argv);
  if (cli.smoke) {
    // CI perf-smoke mode: the scheduler head-to-head, the PDES
    // bit-identity check and the checker-overhead measurement (the rows
    // the CI gates assert on), no google-benchmark suite.
    runner::BenchReport report("micro_structures");
    scheduler_report(report, /*smoke=*/true);
    pdes_report(report, /*smoke=*/true);
    checker_overhead_report(report, /*rounds=*/3);
    report.write();
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  runner::BenchReport report("micro_structures");
  scheduler_report(report, /*smoke=*/false);
  container_report(report);
  pdes_report(report, /*smoke=*/false);
  checker_overhead_report(report, /*rounds=*/5);
  report.write();
  return 0;
}
