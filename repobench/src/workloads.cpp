#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "check/check.hpp"
#include "sim/simulator.hpp"

namespace repobench {

namespace sim = suvtm::sim;
namespace stamp = suvtm::stamp;
namespace runner = suvtm::runner;

namespace {

// Matrix sizes, chosen so one sweep takes a few host seconds on a 4-CPU host
// and no single point dominates it (at scale 4, LogTM-SE genome falls into
// an abort cascade that alone outlasts the rest of the matrix). The
// high-contention apps' event counts swing by up to 2x from seed to seed
// (bayes and yada most), so stamp-hc pairs the seed-derived half of its
// matrix with a fixed canonical half, and spreads each half over many small
// runs: the host time figures then move with the code far more than with
// --seed. The paper table is measured at the larger kModelScale, on the
// first kModelSeeds canonical seeds.
constexpr double kModelScale = 0.5;
constexpr int kModelSeeds = 4;
constexpr double kHcScale = 0.25;
constexpr int kHcSeeds = 8;  // canonical and seed-derived, each
constexpr std::uint64_t kKvOpsPerThread = 1000;
constexpr int kKvSeeds = 6;

constexpr double kTinyScale = 0.05;
constexpr std::uint64_t kTinyKvOps = 40;

// Cycle cap per run: ~100x the longest makespan in the matrices, so a
// livelocked run fails in seconds instead of running to the default 5e9.
constexpr suvtm::Cycle kMaxCycles = 200'000'000;

// Point seeds come from a vetted candidate list: candidate j runs with seed
// splitmix64(j). Candidates 0..kCanonical-1 are the canonical set (stamp-hc's
// fixed half; the paper table's inputs are the first kModelSeeds of them);
// --seed N picks a window of the others. The excluded candidates livelock
// some run at the sizes above, mostly LogTM-SE/FasTM bayes (two
// transactions deadlock-abort each other forever and the run hits the cycle
// cap) -- a model bug the benchmark reports instead of measuring. `repobench --vet`
// re-derives this list after a semantic change.
constexpr int kCandidates = 256;
constexpr int kCanonical = kHcSeeds;
constexpr int kLivelocked[] = {43, 45, 65, 143, 220, 230};

std::uint64_t candidate_seed(std::uint64_t j) {
  std::uint64_t z = j * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return (z ^ (z >> 32)) & 0xffffffffull;
}

/// `n` seeds for --seed `seed`: consecutive vetted non-canonical candidates.
std::vector<std::uint64_t> seed_window(std::uint64_t seed, int n) {
  static const std::vector<std::uint64_t> vetted = [] {
    std::vector<std::uint64_t> v;
    for (int j = kCanonical; j < kCandidates; ++j) {
      if (std::find(std::begin(kLivelocked), std::end(kLivelocked), j) ==
          std::end(kLivelocked)) {
        v.push_back(candidate_seed(j));
      }
    }
    return v;
  }();
  std::vector<std::uint64_t> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(vetted[(seed * n + i) % vetted.size()]);
  }
  return out;
}

std::vector<std::uint64_t> canonical_seeds(int n) {
  std::vector<std::uint64_t> out;
  for (int j = 0; j < n; ++j) out.push_back(candidate_seed(j));
  return out;
}

sim::SimConfig base_config() {
  sim::SimConfig cfg;
  cfg.mem.num_cores = 16;
  cfg.mem.mesh_dim = 4;
  // Explicit, so SUVTM_CHECK / SUVTM_TRACE / SUVTM_METRICS in the
  // environment cannot change what is measured.
  cfg.check.enabled = false;
  cfg.obs.trace = false;
  cfg.obs.metrics = false;
  cfg.obs.trace_mem = false;
  cfg.max_cycles = kMaxCycles;
  return cfg;
}

std::vector<Point> stamp_points(const std::vector<stamp::AppId>& apps,
                                const std::vector<std::uint64_t>& seeds,
                                double scale) {
  std::vector<Point> out;
  for (std::uint64_t s : seeds) {
    for (stamp::AppId app : apps) {
      for (sim::Scheme scheme : sim::all_schemes()) {
        Point p;
        p.app = app;
        p.params.scale = scale;
        p.params.seed = s;
        p.cfg = base_config();
        p.cfg.scheme = scheme;
        p.cfg.seed = s;
        out.push_back(std::move(p));
      }
    }
  }
  return out;
}

Point kv_point(std::uint64_t seed, std::uint64_t ops, std::uint32_t threads) {
  Point p;
  p.kv = true;
  p.kv_params.ops_per_thread = ops;
  p.kv_params.txn_keys = 128;
  p.kv_params.keys_per_txn = 4;
  p.kv_params.remote_read_every = 8;
  p.kv_params.seed = seed;
  p.cfg = base_config();
  p.cfg.scheme = sim::Scheme::kSuv;
  p.cfg.mem.num_cores = 64;
  p.cfg.mem.mesh_dim = 8;
  p.cfg.pdes.shards = 4;
  p.cfg.pdes.host_threads = threads;
  p.cfg.seed = seed;
  return p;
}

std::uint32_t host_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace

std::string Point::label() const {
  const char* what = kv ? "sharded_kv" : stamp::app_name(app);
  const std::uint64_t s = kv ? kv_params.seed : params.seed;
  return std::string(what) + "/" + sim::scheme_name(cfg.scheme) + "/" +
         std::to_string(s);
}

std::vector<Point> model_points(bool tiny) {
  return stamp_points(stamp::high_contention_apps(),
                      canonical_seeds(tiny ? 1 : kModelSeeds),
                      tiny ? kTinyScale : kModelScale);
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  w.name = name;
  if (name == "stamp-hc") {
    w.check_row = true;
    w.sweeps_per_s = 0.4;
    const double scale = tiny ? kTinyScale : kHcScale;
    const int canonical = tiny ? 1 : kCanonical;
    const auto window = seed_window(seed, tiny ? 1 : kHcSeeds);
    w.points = stamp_points(stamp::high_contention_apps(),
                            canonical_seeds(canonical), scale);
    w.head_points = w.points.size();
    for (Point& p :
         stamp_points(stamp::high_contention_apps(), window, scale)) {
      w.points.push_back(std::move(p));
    }
    w.size = "5 apps x 5 schemes x (" + std::to_string(canonical) +
             " canonical + " + std::to_string(window.size()) +
             " seed-derived seeds), scale " + std::to_string(scale) +
             ", 16 cores";
  } else if (name == "pdes-kv64") {
    w.sharded = true;
    w.sweeps_per_s = 0.6;
    w.host_threads = std::min<std::uint32_t>(4, host_cpus());
    const std::uint64_t ops = tiny ? kTinyKvOps : kKvOpsPerThread;
    for (std::uint64_t s : seed_window(seed, tiny ? 1 : kKvSeeds)) {
      w.points.push_back(kv_point(s, ops, w.host_threads));
    }
    w.head_points = w.points.size();
    w.size = std::to_string(w.points.size()) + " seeds x sharded_kv " +
             std::to_string(ops) + " ops/thread, 64 cores, 4 shards, " +
             "SUV-TM, " + std::to_string(w.host_threads) + " host threads";
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<int> vet_candidates(int first, int last) {
  std::vector<int> bad;
  for (int j = first; j < last; ++j) {
    const std::vector<std::uint64_t> s = {candidate_seed(j)};
    std::vector<Point> pts =
        stamp_points(stamp::high_contention_apps(), s, kHcScale);
    for (Point& p :
         stamp_points(stamp::high_contention_apps(), s, kModelScale)) {
      pts.push_back(std::move(p));
    }
    pts.push_back(kv_point(s[0], kKvOpsPerThread, 1));
    for (const Point& p : pts) {
      const Outcome o = run_point(p, nullptr, 0);
      if (!o.ok) {
        std::printf("candidate %d: %s: %s\n", j, p.label().c_str(),
                    o.error.c_str());
        bad.push_back(j);
        break;
      }
    }
  }
  return bad;
}

Outcome run_point(const Point& p, Spans* spans, std::uint64_t run_id) {
  Outcome o;
  SpanScope point(spans, "point", run_id);
  const double t0 = wall_now();
  const double c0 = cpu_now();
  try {
    std::unique_ptr<sim::Simulator> s;
    {
      SpanScope sp(spans, "sim.construct", run_id);
      s = std::make_unique<sim::Simulator>(p.cfg);
    }
    std::unique_ptr<stamp::Workload> app;
    std::unique_ptr<stamp::ShardedKv> kv;
    {
      SpanScope sp(spans, "stamp.build", run_id);
      if (p.kv) {
        kv = std::make_unique<stamp::ShardedKv>(p.kv_params);
        kv->build(*s);
      } else {
        app = stamp::make_workload(p.app);
        app->build(*s, p.params);
      }
    }
    const double t1 = wall_now();
    o.setup_s = t1 - t0;
    {
      SpanScope sp(spans, "sim.run", run_id);
      s->run();
    }
    o.run_s = wall_now() - t1;
    {
      SpanScope sp(spans, "stamp.verify", run_id);
      if (p.kv) {
        kv->verify(*s);
      } else {
        app->verify(*s);
      }
    }
    for (std::uint32_t d = 0; d < s->num_domains(); ++d) {
      if (const auto* ck = s->checker(d)) {
        o.audits += ck->audits_run();
        o.violations += ck->violations().size();
      }
    }
    suvtm::obs::TraceData trace;
    {
      SpanScope sp(spans, "runner.harvest", run_id);
      o.result = runner::harvest_result(
          *s, p.kv ? "sharded_kv" : stamp::app_name(p.app), &trace);
    }
    o.trace_events = trace.events.size();
    o.trace_dropped = trace.dropped;
    o.ok = true;
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  o.total_s = wall_now() - t0;
  o.cpu_s = cpu_now() - c0;
  return o;
}

Sweep run_sweep(const std::vector<Point>& points, Spans* spans) {
  Sweep sw;
  sw.out.reserve(points.size());
  const double w0 = wall_now();
  for (std::size_t i = 0; i < points.size(); ++i) {
    sw.out.push_back(run_point(points[i], spans, i));
    sw.events += sw.out.back().result.sim_events;
  }
  sw.wall_s = wall_now() - w0;
  return sw;
}

std::vector<Point> with(std::vector<Point> points,
                        const std::function<void(Point&)>& edit) {
  for (Point& p : points) edit(p);
  return points;
}

std::vector<ModelRow> model_rows(const std::vector<Point>& points,
                                 const std::vector<Outcome>& outcomes) {
  // The paper's geomean makespan speedups over the five high-contention
  // apps (Section V; EXPERIMENTS.md's "paper" column).
  struct Pair {
    const char* name;
    sim::Scheme test;
    sim::Scheme base;
    double paper_pct;
  };
  static constexpr Pair kPairs[] = {
      {"SUV-TM/LogTM-SE", sim::Scheme::kSuv, sim::Scheme::kLogTmSe, 95.0},
      {"SUV-TM/FasTM", sim::Scheme::kSuv, sim::Scheme::kFasTm, 12.0},
      {"DynTM+SUV/DynTM", sim::Scheme::kDynTmSuv, sim::Scheme::kDynTm, 18.6},
  };
  // (app, seed) -> scheme -> makespan
  std::map<std::pair<int, std::uint64_t>, std::map<sim::Scheme, double>> ms;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!outcomes[i].ok) continue;
    ms[{static_cast<int>(points[i].app), points[i].params.seed}]
      [points[i].cfg.scheme] = static_cast<double>(outcomes[i].result.makespan);
  }
  std::vector<ModelRow> rows;
  for (const Pair& pr : kPairs) {
    double log_sum = 0.0;
    int n = 0;
    for (const auto& [key, by_scheme] : ms) {
      const auto t = by_scheme.find(pr.test);
      const auto b = by_scheme.find(pr.base);
      if (t == by_scheme.end() || b == by_scheme.end()) continue;
      log_sum += std::log(b->second / t->second);
      ++n;
    }
    const double pct = n == 0 ? 0.0 : (std::exp(log_sum / n) - 1.0) * 100.0;
    rows.push_back(ModelRow{pr.name, pr.paper_pct, pct,
                            std::fabs(pct - pr.paper_pct)});
  }
  return rows;
}

}  // namespace repobench
