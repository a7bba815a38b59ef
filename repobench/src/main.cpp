// repobench -- the repository benchmark program.
//
//   repobench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--spans-out FILE] [--commit SHA]
//   repobench --vet FIRST LAST   (list seed candidates some run fails on)
//
// --trace 0 runs the workload's matrix untimed once (warm-up and reference
// results), then times about S seconds of whole sweeps of it and prints the
// end-to-end metrics. --trace 1 is the separate traced run: it records
// spans around every call into the simulator, drives each layer's entry
// point in isolation, runs the A/B rows (obs, checker, PDES threads) and
// prints the per-layer metrics. Both print run metadata first and, as the
// last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Any failed run (throw, verify(), checker verdict, bit-identity break)
// makes the exit code 1.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "check/check.hpp"
#include "isolated.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace {

using namespace repobench;
namespace sim = suvtm::sim;
namespace runner = suvtm::runner;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
  std::string commit = "unknown";
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
      have_seconds = o.seconds > 0;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      o.trace = v == "1";
    } else if (a == "--size") {
      if (v != "full" && v != "tiny") {
        throw std::invalid_argument("--size is full or tiny");
      }
      o.tiny = v == "tiny";
    } else if (a == "--spans-out") {
      o.spans_out = v;
    } else if (a == "--commit") {
      o.commit = v;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    throw std::invalid_argument(
        "usage: repobench --workload NAME --seed N --seconds S --trace 0|1");
  }
  return o;
}

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

void print_metadata(const Options& o, const Workload& w) {
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.tiny ? "tiny" : "full");
  std::printf("# matrix: %s (%zu points)\n", w.size.c_str(), w.points.size());
  std::printf("# host: nproc=%u build_type=%s optimized=%s compiler=\"%s\"\n",
              std::thread::hardware_concurrency(), REPOBENCH_BUILD_TYPE,
              kOptimized ? "yes" : "NO", kCompiler);
  std::printf("# hooks: check::kHooksCompiled=%d obs::kHooksCompiled=%d\n",
              suvtm::check::kHooksCompiled ? 1 : 0,
              suvtm::obs::kHooksCompiled ? 1 : 0);
  std::printf("# commit=%s\n", o.commit.c_str());
  if (!kOptimized) {
    std::printf("# WARNING: unoptimized build -- host-time figures are not "
                "comparable with optimized builds\n");
  }
}

/// Runs attempted/failed, plus the first few failure reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& why) {
    ++failed;
    if (failed <= 10) std::printf("FAILED: %s\n", why.c_str());
  }
  /// Counts one run; when `ref` is given, a run whose RunResult differs
  /// from the reference (metrics cleared when `ignore_metrics`) fails too.
  void run(const Point& p, const Outcome& o, const Outcome* ref = nullptr,
           bool ignore_metrics = false) {
    ++attempted;
    if (!o.ok) {
      fail(p.label() + ": " + o.error);
      return;
    }
    if (ref == nullptr || !ref->ok) return;
    runner::RunResult r = o.result;
    if (ignore_metrics) r.metrics = {};
    if (!(r == ref->result)) {
      fail(p.label() + ": RunResult differs from the reference run");
    }
  }
  void sweep(const std::vector<Point>& points, const Sweep& sw,
             const Sweep* ref = nullptr) {
    for (std::size_t i = 0; i < sw.out.size(); ++i) {
      run(points[i], sw.out[i], ref ? &ref->out[i] : nullptr);
    }
  }
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t digest(const Sweep& sw) {
  Digest d;
  for (const Outcome& o : sw.out) d.result(o.result);
  return d.value();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The paper-reference table, computed fresh from an untimed pass of the
/// canonical matrix. The model's distance from the paper is a property of
/// the model, measured on fixed inputs so runs compare exactly; every
/// workload reports it.
std::vector<ModelRow> model_table(const Options& o, Tally& tally) {
  const auto pts = model_points(o.tiny);
  const Sweep hc = run_sweep(pts);
  tally.sweep(pts, hc);
  const std::vector<ModelRow> rows = model_rows(pts, hc.out);
  std::printf("paper reference (geomean makespan speedup, 5 high-contention "
              "apps):\n");
  for (const ModelRow& r : rows) {
    std::printf("  %-16s paper %+6.1f%%  measured %+6.1f%%  error %5.1f pp\n",
                r.pair, r.paper_pct, r.measured_pct, r.error_pp);
  }
  return rows;
}

double mean_error_pp(const std::vector<ModelRow>& rows) {
  double s = 0.0;
  for (const ModelRow& r : rows) s += r.error_pp;
  return rows.empty() ? 0.0 : s / static_cast<double>(rows.size());
}

/// Highest percentile of the ladder with at least ten samples above it.
double tail_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 98.0, 95.0, 90.0, 75.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) return p;
  }
  return 50.0;
}

Sweep reference_pass(const Workload& w, Tally& tally) {
  Sweep ref = run_sweep(w.points);
  tally.sweep(w.points, ref);
  std::printf("digest: %s\n", hex(digest(ref)).c_str());
  std::printf("reference pass: %zu runs, %llu events, %.3f s\n",
              ref.out.size(), static_cast<unsigned long long>(ref.events),
              ref.wall_s);
  return ref;
}

// ---- --trace 0: end-to-end metrics ------------------------------------------

/// Pins the calling thread to each CPU of its affinity mask in turn, so the
/// sweeps of a serial workload visit every CPU the process may use. On a
/// shared host each vCPU's speed changes on its own, in stretches of
/// seconds to a minute, and a process the kernel leaves on one vCPU takes
/// that vCPU's stretch into every sample. Restores the mask on destruction.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (pinned_) sched_setaffinity(0, sizeof(mask_), &mask_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the k-th CPU of the mask (mod its size); no-op on one CPU.
  void pin(std::size_t k) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0 || pinned_;
  }
  std::size_t cpus() const { return cpus_.size(); }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
  bool pinned_ = false;
};

void timed_run(const Workload& w, const Options& o, Metrics& m, Tally& tally) {
  const Sweep ref = reference_pass(w, tally);
  const auto rows = model_table(o, tally);

  // Per-point samples across a fixed number of sweeps. The host slows down
  // in episodes (a sweep of the same matrix can take 1.5x the time of the
  // next), so each point is taken at its fastest sample -- the one least
  // disturbed -- and the matrix figures are sums over points. A serial
  // workload's sweeps rotate over the CPUs (CpuRotation), so a point's
  // samples come from every vCPU; the PDES workload keeps its threads free.
  // The sweep count comes from --seconds and the workload's sweep rate, not
  // from the clock, so a faster build gets no extra samples to pick from.
  // Setup time is the median per point, as the set-up figure is defined.
  const std::size_t n = w.points.size();
  const int sweeps = std::max(
      3, static_cast<int>(std::lround(o.seconds * w.sweeps_per_s)));
  std::vector<std::vector<double>> wall(n), cpu(n), setup(n);
  std::vector<double> sweep_walls;
  {
    CpuRotation rotation;
    for (int k = 0; k < sweeps; ++k) {
      if (!w.sharded) rotation.pin(static_cast<std::size_t>(k));
      const Sweep sw = run_sweep(w.points);
      tally.sweep(w.points, sw, &ref);
      sweep_walls.push_back(sw.wall_s);
      for (std::size_t i = 0; i < n; ++i) {
        wall[i].push_back(sw.out[i].total_s);
        cpu[i].push_back(sw.out[i].cpu_s);
        setup[i].push_back(sw.out[i].setup_s);
      }
    }
    if (!w.sharded && rotation.cpus() > 1) {
      std::printf("timed sweeps rotate over %zu CPUs\n", rotation.cpus());
    }
  }
  const auto fastest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  // The per-point distribution covers the head points only: on stamp-hc
  // its canonical half, whose inputs do not change with --seed, so the
  // tail moves with the code rather than with which long bayes runs a seed
  // draws. The matrix sums cover every point.
  double sweep_s = 0.0, cpu_s = 0.0, setup_s = 0.0;
  std::vector<double> point_ms;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < w.head_points) point_ms.push_back(fastest(wall[i]) * 1e3);
    sweep_s += fastest(wall[i]);
    cpu_s += fastest(cpu[i]);
    setup_s += median(setup[i]);
  }
  const double tail_p = tail_percentile(point_ms.size());
  std::printf("timed: %d sweeps of %zu runs (sweep wall s min %.3f, median "
              "%.3f, max %.3f); run_ms_tail is p%g of the first %zu points\n",
              sweeps, n,
              *std::min_element(sweep_walls.begin(), sweep_walls.end()),
              median(sweep_walls),
              *std::max_element(sweep_walls.begin(), sweep_walls.end()),
              tail_p, point_ms.size());

  m.set("events_per_s", static_cast<double>(ref.events) / sweep_s, "events/s");
  m.set("sweep_s", sweep_s, "s");
  m.set("cpu_s", cpu_s, "s");
  m.set("run_ms_p50", percentile(point_ms, 50.0), "ms");
  m.set("run_ms_tail", percentile(point_ms, tail_p), "ms");
  m.set("setup_s", setup_s, "s");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("model_error_pp", mean_error_pp(rows), "pp");
}

// ---- --trace 1: per-layer metrics -------------------------------------------

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Stats blocks summed over the reference pass.
struct Totals {
  runner::RunResult sum;
  double makespan_domains = 0.0;  // sum of makespan x domains
  double live_entries = 0.0;      // mean redirect entries live, SUV runs
  std::uint64_t accesses = 0;
  std::uint64_t checks = 0;  // conflict checks: granted accesses + NACKs
  std::uint64_t attempts = 0;
};

Totals totals(const std::vector<Point>& points, const Sweep& ref) {
  Totals t;
  runner::RunResult& s = t.sum;
  int suv_runs = 0;
  for (std::size_t i = 0; i < ref.out.size(); ++i) {
    const runner::RunResult& r = ref.out[i].result;
    s.sim_events += r.sim_events;
    s.breakdown += r.breakdown;
    suvtm::htm::accumulate(s.htm, r.htm);
    suvtm::htm::accumulate(s.conflicts, r.conflicts);
    suvtm::htm::accumulate(s.vm, r.vm);
    suvtm::mem::accumulate(s.mem, r.mem);
    suvtm::suv::accumulate(s.table, r.table);
    suvtm::vm::accumulate(s.suv, r.suv);
    s.pool_lines_in_use += r.pool_lines_in_use;
    t.makespan_domains += static_cast<double>(r.makespan) *
                          std::max<std::uint32_t>(1, points[i].cfg.pdes.shards);
    if (r.has_suv) {
      t.live_entries += static_cast<double>(r.redirect_entries_live);
      ++suv_runs;
    }
  }
  if (suv_runs > 0) t.live_entries /= suv_runs;
  t.accesses = s.mem.l1_hits + s.mem.l1_misses;
  t.checks = t.accesses + s.conflicts.conflicts;
  t.attempts = s.htm.commits + s.htm.aborts;
  return t;
}

Shape shape_of(const Workload& w, const Totals& t, std::uint64_t seed) {
  const runner::RunResult& s = t.sum;
  Shape sh;
  sh.cfg = w.points.front().cfg;
  sh.seed = seed;
  const std::uint32_t shards = std::max<std::uint32_t>(1, sh.cfg.pdes.shards);
  sh.chains = sh.cfg.mem.num_cores / shards;
  const double per_cycle = ratio(static_cast<double>(s.sim_events),
                                 t.makespan_domains);
  sh.mean_gap = per_cycle > 0 ? sh.chains / per_cycle : 8.0;
  const double tx = static_cast<double>(s.vm.tx_loads + s.vm.tx_stores);
  sh.write_frac = tx > 0 ? static_cast<double>(s.vm.tx_stores) / tx : 0.3;
  sh.l1_miss_rate = ratio(static_cast<double>(s.mem.l1_misses),
                          static_cast<double>(t.accesses));
  using B = sim::Bucket;
  const double in_tx = static_cast<double>(
      s.breakdown.get(B::kTrans) + s.breakdown.get(B::kWasted) +
      s.breakdown.get(B::kStalled) + s.breakdown.get(B::kAborting) +
      s.breakdown.get(B::kCommitting));
  sh.live_txns = sh.chains * ratio(in_tx, static_cast<double>(s.breakdown.total()));
  sh.read_lines = ratio(static_cast<double>(s.vm.tx_loads),
                        static_cast<double>(t.attempts));
  sh.write_lines = ratio(static_cast<double>(s.vm.tx_stores),
                         static_cast<double>(t.attempts));
  sh.l2_miss_rate = ratio(static_cast<double>(s.mem.l2_misses),
                          static_cast<double>(s.mem.l2_hits + s.mem.l2_misses));
  sh.nack_frac = ratio(static_cast<double>(s.conflicts.conflicts),
                       static_cast<double>(t.checks));
  sh.live_entries = t.live_entries + sh.live_txns * sh.write_lines;
  sh.lookup_hit_frac =
      1.0 - ratio(static_cast<double>(s.table.summary_filtered),
                  static_cast<double>(s.table.lookups));
  sh.table_l1_miss_rate = s.table.l1_miss_rate();
  return sh;
}

void write_spans(const Spans& spans, const std::string& path) {
  if (path.empty()) return;
  std::ofstream f(path);
  if (!f) {
    std::printf("note: could not write spans to %s\n", path.c_str());
    return;
  }
  const double t0 = spans.spans().empty() ? 0.0 : spans.spans().front().start;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Spans::Span& s = spans.spans()[i];
    f << "{\"id\": " << i << ", \"name\": \"" << s.name
      << "\", \"parent\": " << s.parent << ", \"run\": " << s.run
      << ", \"start_s\": " << (s.start - t0) << ", \"end_s\": " << (s.end - t0)
      << "}\n";
  }
}

void print_ab(const char* row, const AbResult& r) {
  std::printf("  %-18s median %.3fx (min %.3f, max %.3f) over %d ABBA "
              "rounds\n",
              row, r.median, r.min, r.max, r.rounds);
}

void traced_run(const Workload& w, const Options& o, Metrics& m, Tally& tally) {
  const Sweep ref = reference_pass(w, tally);
  const auto rows = model_table(o, tally);
  const Totals t = totals(w.points, ref);
  const runner::RunResult& s = t.sum;
  const int rounds = o.tiny ? 1 : 3;

  // Span pass: one sweep with spans around every call into the simulator.
  Spans spans;
  const Sweep sp = run_sweep(w.points, &spans);
  tally.sweep(w.points, sp, &ref);
  const auto totals_s = spans.total_seconds();
  const auto total_of = [&](const char* n) {
    const auto it = totals_s.find(n);
    return it == totals_s.end() ? 0.0 : it->second;
  };
  const double run_s = total_of("sim.run");
  // Sharded runs keep host_threads CPUs busy during sim.run; the isolated
  // unit costs are serial, so their busy share is taken of that capacity.
  const double capacity_s = run_s * (w.sharded ? w.host_threads : 1);

  // sim / scheduler
  m.set("sim.events", static_cast<double>(s.sim_events), "count");
  m.set("sim.events_per_commit",
        ratio(static_cast<double>(s.sim_events),
              static_cast<double>(s.htm.commits)),
        "events/commit");
  m.set("sim.run_s", run_s, "s");
  m.set("sim.construct_s", total_of("sim.construct"), "s");
  m.set("sim.ns_per_event", ratio(run_s * 1e9, static_cast<double>(s.sim_events)),
        "ns/event");

  // Isolated unit costs.
  const Shape shape = shape_of(w, t, o.seed);
  double ns_sched = 0, ns_mem = 0, ns_cm = 0, ns_suv = 0;
  {
    SpanScope sc(&spans, "iso.sched");
    ns_sched = sched_ns_per_event(shape);
  }
  {
    SpanScope sc(&spans, "iso.mem");
    ns_mem = mem_ns_per_access(shape);
  }
  {
    SpanScope sc(&spans, "iso.conflict");
    ns_cm = conflict_ns_per_check(shape);
  }
  {
    SpanScope sc(&spans, "iso.suv");
    ns_suv = suv_ns_per_lookup(shape);
  }
  const auto busy = [&](double ns, std::uint64_t calls) {
    return ratio(ns * 1e-9 * static_cast<double>(calls), capacity_s);
  };
  const double b_sched = busy(ns_sched, s.sim_events);
  const double b_mem = busy(ns_mem, t.accesses);
  const double b_cm = busy(ns_cm, t.checks);
  const double b_suv = busy(ns_suv, s.table.lookups);
  m.set("sched.ns_per_event_isolated", ns_sched, "ns/event");
  m.set("sched.est_busy_frac", b_sched, "ratio");
  m.set("sim.unattributed_frac", 1.0 - b_sched - b_mem - b_cm - b_suv, "ratio");

  // mem
  m.set("mem.accesses", static_cast<double>(t.accesses), "count");
  m.set("mem.l1_miss_rate", shape.l1_miss_rate, "ratio");
  m.set("mem.l2_miss_rate", shape.l2_miss_rate, "ratio");
  m.set("mem.invalidations", static_cast<double>(s.mem.invalidations), "count");
  m.set("mem.forwards", static_cast<double>(s.mem.forwards), "count");
  m.set("mem.writebacks", static_cast<double>(s.mem.writebacks), "count");
  m.set("mem.ns_per_access_isolated", ns_mem, "ns/access");
  m.set("mem.est_busy_frac", b_mem, "ratio");

  // htm / conflict
  m.set("htm.attempts", static_cast<double>(t.attempts), "count");
  m.set("htm.commit_ratio",
        ratio(static_cast<double>(s.htm.commits), static_cast<double>(t.attempts)),
        "ratio");
  m.set("htm.overflowed_attempts", static_cast<double>(s.htm.overflowed_attempts),
        "count");
  m.set("conflict.nacks", static_cast<double>(s.conflicts.conflicts), "count");
  m.set("conflict.nacks_per_access",
        ratio(static_cast<double>(s.conflicts.conflicts),
              static_cast<double>(t.accesses)),
        "ratio");
  m.set("conflict.false_frac",
        ratio(static_cast<double>(s.conflicts.false_conflicts),
              static_cast<double>(s.conflicts.conflicts)),
        "ratio");
  m.set("conflict.deadlock_aborts", static_cast<double>(s.conflicts.deadlock_aborts),
        "count");
  m.set("conflict.ns_per_check_isolated", ns_cm, "ns/check");
  m.set("conflict.est_busy_frac", b_cm, "ratio");

  // vm
  m.set("vm.tx_loads", static_cast<double>(s.vm.tx_loads), "count");
  m.set("vm.tx_stores", static_cast<double>(s.vm.tx_stores), "count");
  m.set("vm.log_entries", static_cast<double>(s.vm.log_entries), "count");
  m.set("vm.degenerations", static_cast<double>(s.vm.degenerations), "count");
  m.set("vm.data_overflows", static_cast<double>(s.vm.data_overflows), "count");
  std::map<sim::Scheme, std::pair<double, double>> per_scheme;  // run_s, events
  for (std::size_t i = 0; i < sp.out.size(); ++i) {
    auto& acc = per_scheme[w.points[i].cfg.scheme];
    acc.first += sp.out[i].run_s;
    acc.second += static_cast<double>(sp.out[i].result.sim_events);
  }
  std::map<sim::Scheme, double> ns_scheme;
  for (sim::Scheme sc : sim::all_schemes()) {
    const std::string name =
        std::string("vm.") + sim::scheme_cli_name(sc) + ".ns_per_event";
    const auto it = per_scheme.find(sc);
    if (it == per_scheme.end()) {
      m.not_applicable(name, "ns/event");
    } else {
      ns_scheme[sc] = ratio(it->second.first * 1e9, it->second.second);
      m.set(name, ns_scheme[sc], "ns/event");
    }
  }

  // Simulated waiting (paper Fig. 6/9 buckets), shares of all core cycles.
  const double all = static_cast<double>(s.breakdown.total());
  const auto frac = [&](sim::Bucket b) {
    return ratio(static_cast<double>(s.breakdown.get(b)), all);
  };
  m.set("breakdown.stalled_frac", frac(sim::Bucket::kStalled), "ratio");
  m.set("breakdown.backoff_frac", frac(sim::Bucket::kBackoff), "ratio");
  m.set("breakdown.wasted_frac", frac(sim::Bucket::kWasted), "ratio");
  m.set("breakdown.aborting_frac", frac(sim::Bucket::kAborting), "ratio");
  m.set("breakdown.committing_frac", frac(sim::Bucket::kCommitting), "ratio");

  // suv
  m.set("suv.lookups", static_cast<double>(s.table.lookups), "count");
  m.set("suv.summary_filtered_frac",
        ratio(static_cast<double>(s.table.summary_filtered),
              static_cast<double>(s.table.lookups)),
        "ratio");
  m.set("suv.table_l1_miss_rate", s.table.l1_miss_rate(), "ratio");
  m.set("suv.misspeculations", static_cast<double>(s.table.misspeculations),
        "count");
  m.set("suv.entries_created", static_cast<double>(s.suv.entries_created),
        "count");
  m.set("suv.pool_lines_in_use", static_cast<double>(s.pool_lines_in_use),
        "count");
  m.set("suv.ns_per_lookup_isolated", ns_suv, "ns/lookup");
  m.set("suv.est_busy_frac", b_suv, "ratio");
  if (ns_scheme.count(sim::Scheme::kSuv) && ns_scheme.count(sim::Scheme::kFasTm)) {
    m.set("suv.host_gap_ns_per_event",
          ns_scheme[sim::Scheme::kSuv] - ns_scheme[sim::Scheme::kFasTm],
          "ns/event");
  } else {
    m.not_applicable("suv.host_gap_ns_per_event", "ns/event");
  }

  // stamp / runner
  m.set("stamp.build_s", total_of("stamp.build"), "s");
  m.set("stamp.verify_s", total_of("stamp.verify"), "s");
  m.set("runner.harvest_s", total_of("runner.harvest"), "s");

  // Paper-reference speedups (the table above, as per-layer numbers).
  m.set("model.suv_over_logtm_pct", rows[0].measured_pct, "%");
  m.set("model.suv_over_fastm_pct", rows[1].measured_pct, "%");
  m.set("model.dyntmsuv_over_dyntm_pct", rows[2].measured_pct, "%");

  // ---- A/B rows ----
  const std::size_t n = w.head_points;
  std::printf("A/B rows (B/A time ratio) over the first %zu points:\n", n);
  // Runs point i of `pts` and checks it against the reference run.
  const auto checked = [&](const std::vector<Point>& pts, std::size_t i,
                           bool ignore_metrics = false) {
    const Outcome out = run_point(pts[i], nullptr, i);
    tally.run(pts[i], out, &ref.out[i], ignore_metrics);
    return out;
  };
  // obs: trace + metrics on vs the untraced run, process CPU time.
  {
    SpanScope sc(&spans, "ab.obs");
    const auto obs_pts = with(w.points, [](Point& p) {
      p.cfg.obs.trace = true;
      p.cfg.obs.metrics = true;
    });
    std::vector<Outcome> last(n);
    const AbResult r = ab_compare(
        n, [&](std::size_t i) { checked(w.points, i); },
        [&](std::size_t i) { last[i] = checked(obs_pts, i, true); }, rounds,
        AbClock::kProcessCpu);
    std::uint64_t events = 0, dropped = 0;
    for (const Outcome& out : last) {
      events += out.trace_events;
      dropped += out.trace_dropped;
    }
    print_ab("obs trace+metrics", r);
    m.set("obs.overhead_pct", (r.median - 1.0) * 100.0, "%");
    m.set("obs.trace_events", static_cast<double>(events), "count");
    m.set("obs.trace_dropped", static_cast<double>(dropped), "count");
  }
  // check: checker on vs off over the A/B points, process CPU time.
  // The checker only observes, so checker-on runs must match the reference.
  if (w.check_row) {
    SpanScope sc(&spans, "ab.check");
    const auto on_pts = with(w.points, [](Point& p) {
      p.cfg.check.enabled = suvtm::check::kHooksCompiled;
    });
    std::vector<Outcome> last(n);
    const AbResult r = ab_compare(
        n, [&](std::size_t i) { checked(w.points, i); },
        [&](std::size_t i) { last[i] = checked(on_pts, i); }, rounds,
        AbClock::kProcessCpu);
    print_ab("checker on", r);
    std::uint64_t audits = 0, violations = 0;
    for (const Outcome& out : last) {
      audits += out.audits;
      violations += out.violations;
    }
    m.set("check.overhead_pct", (r.median - 1.0) * 100.0, "%");
    m.set("check.audits_run", static_cast<double>(audits), "count");
    m.set("check.violations", static_cast<double>(violations), "count");
  } else {
    m.not_applicable("check.overhead_pct", "%");
    m.not_applicable("check.audits_run", "count");
    m.not_applicable("check.violations", "count");
  }
  // pdes: the same machine at 1 vs N host threads, wall time. The 1-thread
  // RunResults must equal the N-thread reference bit for bit.
  if (w.sharded) {
    SpanScope sc(&spans, "ab.pdes");
    const auto one =
        with(w.points, [](Point& p) { p.cfg.pdes.host_threads = 1; });
    double cpu = 0.0, wall = 0.0;
    const std::uint64_t failed_before = tally.failed;
    const AbResult r = ab_compare(
        n, [&](std::size_t i) { checked(one, i); },
        [&](std::size_t i) {
          const Outcome out = checked(w.points, i);
          cpu += out.cpu_s;
          wall += out.total_s;
        },
        rounds, AbClock::kWall);
    const double speedup = ratio(1.0, r.median);
    std::printf("  %-18s speedup %.3fx (min %.3f, max %.3f) at %u threads "
                "over %d ABBA rounds; 1-thread RunResults %s\n",
                "pdes threads", speedup, ratio(1.0, r.max), ratio(1.0, r.min),
                w.host_threads, r.rounds,
                tally.failed == failed_before ? "bit-identical" : "DIFFER");
    m.set("pdes.speedup", speedup, "x");
    m.set("pdes.efficiency", speedup / w.host_threads, "ratio");
    m.set("pdes.cpu_per_wall", ratio(cpu, wall), "ratio");
  } else {
    m.not_applicable("pdes.speedup", "x");
    m.not_applicable("pdes.efficiency", "ratio");
    m.not_applicable("pdes.cpu_per_wall", "ratio");
  }

  // Span-recording overhead of the traced pass: unit cost of one span times
  // the spans a sweep records, as a share of the sweep's wall time.
  {
    Spans probe;
    constexpr int kProbe = 200000;
    const double t0 = wall_now();
    for (int i = 0; i < kProbe; ++i) SpanScope sc(&probe, "probe");
    const double per_span = (wall_now() - t0) / kProbe;
    const double spans_per_sweep = 6.0 * static_cast<double>(w.points.size());
    m.set("trace.span_overhead_pct",
          ratio(per_span * spans_per_sweep * 100.0, sp.wall_s), "%");
  }

  std::printf("span self times (s):\n");
  for (const auto& [name, sec] : spans.self_seconds()) {
    std::printf("  %-16s %.4f\n", name.c_str(), sec);
  }
  write_spans(spans, o.spans_out);
}

void print_result(const Metrics& m, const Tally& tally) {
  std::printf("metrics:\n");
  for (const auto& [name, v] : m.m) {
    std::printf("  %-32s %.6g %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  if (!m.na.empty()) {
    std::printf("not applicable to this workload (reported as 0):");
    for (const auto& n : m.na) std::printf(" %s", n.c_str());
    std::printf("\n");
  }
  std::printf("runs_failed=%llu of runs_attempted=%llu\n",
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  bool first = true;
  for (const auto& [name, v] : m.m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(v.value) ? v.value : 0.0, v.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds. glibc raises its mmap and trim thresholds as
  // blocks are freed, and with host threads the outcome depends on thread
  // timing: whole pdes-kv64 processes came out bimodal in set-up time and
  // peak RSS (9 vs 16 ms, 22 vs 27 MB). Fixed thresholds keep freed memory
  // in the process and remove that split.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  if (argc == 4 && std::string(argv[1]) == "--vet") {
    // Maintenance mode: list the seed candidates some run fails on.
    const auto bad = vet_candidates(std::atoi(argv[2]), std::atoi(argv[3]));
    std::printf("failing candidates:");
    for (int j : bad) std::printf(" %d,", j);
    std::printf("\n");
    return 0;
  }
  Options o;
  Workload w;
  try {
    o = parse(argc, argv);
    w = make_workload(o.workload, o.seed, o.tiny);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repobench: %s\n", e.what());
    return 2;
  }
  print_metadata(o, w);
  Metrics m;
  Tally tally;
  if (o.trace) {
    traced_run(w, o, m, tally);
  } else {
    timed_run(w, o, m, tally);
  }
  print_result(m, tally);
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}
