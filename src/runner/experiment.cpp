#include "runner/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <thread>
#include <unordered_set>

#include "sim/simulator.hpp"

namespace suvtm::runner {

namespace {

/// Ratio that maps 0/0 to 0 (rates over counters that may never fire).
double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Fold the run's stats-block rates into the hook-fed registry snapshot, so
/// BENCH_*.json carries one uniform metrics namespace.
void add_derived_metrics(RunResult& r) {
  obs::MetricsSnapshot& m = r.metrics;
  m.set("htm.commits", static_cast<double>(r.htm.commits));
  m.set("htm.aborts", static_cast<double>(r.htm.aborts));
  m.set("htm.abort_ratio", r.htm.abort_ratio());
  m.set("htm.overflowed_attempts",
        static_cast<double>(r.htm.overflowed_attempts));
  m.set("conflict.sig_false_positive_rate",
        ratio(r.conflicts.false_conflicts, r.conflicts.conflicts));
  m.set("mem.l1_miss_rate", ratio(r.mem.l1_misses, r.mem.l1_hits + r.mem.l1_misses));
  if (r.has_suv) {
    m.set("suv.summary_false_filter_rate",
          ratio(r.table.false_filter_hits, r.table.lookups));
    m.set("suv.table_l1_miss_rate", r.table.l1_miss_rate());
    m.set("suv.redirect_entries_live",
          static_cast<double>(r.redirect_entries_live));
    m.set("suv.pool_lines_in_use", static_cast<double>(r.pool_lines_in_use));
  }
  if (r.has_dyntm) {
    m.set("dyntm.lazy_txn_ratio",
          ratio(r.dyntm.lazy_txns, r.dyntm.lazy_txns + r.dyntm.eager_txns));
  }
}

}  // namespace

RunResult harvest_result(sim::Simulator& sim, std::string app_name,
                         obs::TraceData* trace_out) {
  const sim::SimConfig& cfg = sim.config();
  RunResult r;
  r.app = std::move(app_name);
  r.scheme = cfg.scheme;
  r.makespan = sim.makespan();
  r.sim_events = sim.events_processed();
  r.breakdown = sim.total_breakdown();

  // Stats blocks sum over the machine's domains (exactly one on the classic
  // monolithic machine; one per shard under conservative PDES). The domain
  // order is fixed, so sharded harvests are deterministic by construction.
  for (std::uint32_t d = 0; d < sim.num_domains(); ++d) {
    accumulate(r.htm, sim.htm(d).stats());
    accumulate(r.conflicts, sim.htm(d).conflicts().stats());
    accumulate(r.vm, sim.htm(d).vm().stats());
    accumulate(r.mem, sim.mem(d).stats());

    // Scheme-specific stats: DynTM's own, and SUV's directly or via
    // DynTM's backend.
    htm::VersionManager& vmgr = sim.htm(d).vm();
    if (auto* dyn = dynamic_cast<vm::DynTm*>(&vmgr)) {
      r.has_dyntm = true;
      accumulate(r.dyntm, dyn->dyntm_stats());
    }
    if (vm::SuvVm* suvvm = sim::suv_backend(vmgr)) {
      r.has_suv = true;
      accumulate(r.table, suvvm->table().stats());
      accumulate(r.suv, suvvm->suv_stats());
      r.redirect_entries_live += suvvm->table().total_entries();
      for (CoreId c = 0; c < sim.num_cores(); ++c) {
        r.pool_lines_in_use += suvvm->pool(c).lines_in_use();
      }
    }
  }

  if (obs::Recorder* rec = sim.recorder()) {
    if (cfg.obs.metrics) {
      r.metrics = sim.harvest_metrics();
      add_derived_metrics(r);
    }
    if (trace_out != nullptr && rec->tracing()) {
      *trace_out = sim.take_trace();
    }
  }
  return r;
}

RunResult run_app(stamp::AppId app, const sim::SimConfig& cfg,
                  const stamp::SuiteParams& params,
                  obs::TraceData* trace_out) {
  sim::Simulator sim(cfg);
  auto workload = stamp::make_workload(app);
  workload->build(sim, params);
  sim.run();
  workload->verify(sim);
  return harvest_result(sim, stamp::app_name(app), trace_out);
}

void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(n);
  const auto run = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  const std::size_t threads = std::min<std::size_t>(jobs, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) run(i);
  } else {
    std::atomic<std::size_t> next{0};
    // jthreads join on destruction, so an exception while spawning still
    // joins every thread already started before `next` and `errors` die.
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t k = 0; k < threads; ++k) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) return;
          run(i);
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<RunResult> run_matrix(const std::vector<RunPoint>& points,
                                  unsigned jobs,
                                  std::vector<obs::TraceData>* traces) {
  std::vector<RunResult> out(points.size());
  if (traces != nullptr) traces->assign(points.size(), obs::TraceData{});
  parallel_for(points.size(), jobs, [&](std::size_t i) {
    out[i] = run_app(points[i].app, points[i].cfg, points[i].params,
                     traces != nullptr ? &(*traces)[i] : nullptr);
  });
  return out;
}

double geomean_speedup(const std::vector<RunResult>& base,
                       const std::vector<RunResult>& test,
                       bool high_contention_only) {
  std::unordered_set<std::string> wanted;
  for (stamp::AppId id : high_contention_only ? stamp::high_contention_apps()
                                              : stamp::all_apps()) {
    wanted.insert(stamp::app_name(id));
  }
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const auto& b : base) {
    if (!wanted.count(b.app)) continue;
    for (const auto& t : test) {
      if (t.app != b.app) continue;
      log_sum += std::log(static_cast<double>(b.makespan) /
                          static_cast<double>(t.makespan));
      ++n;
    }
  }
  return n == 0 ? 1.0 : std::exp(log_sum / static_cast<double>(n));
}

}  // namespace suvtm::runner
