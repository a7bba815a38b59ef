// Golden digest: the integer statistics of a fixed set of runs folded into
// one committed constant. Host-performance work must leave every simulated
// result bit-identical, so this constant only changes with a change that
// states a semantic change to the model (and says why).
//
// The runs: bayes and yada at scale 0.05 under all five schemes, and one
// 64-core 4-shard ShardedKv point at 1 and at 4 host threads. The same
// runs also pin that simulator events never take the scheduler's
// allocating at() callback path, that each domain has at most one pending
// event per core, and that NACK retries park (the constant predates parked
// retries, so it also proves that skipping them leaves every result
// unchanged).
//
// A second constant pins observability output the same way: the trace
// events and every metrics scalar, histogram and series (the occupancy
// samples included) of bayes under SUV-TM and LogTM-SE at scale 0.05 and
// of the 64-core 4-shard ShardedKv point with trace_mem on. Samples carry
// their grid cycle (every multiple of obs::Recorder::kSamplePeriodCycles)
// and the gauges as the first drained cycle at or past it found them, so
// this constant also pins which cycles the scheduler announces to the
// recorder.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "stamp/sharded_kv.hpp"

namespace suvtm {
namespace {

constexpr std::uint64_t kGolden = 0xba743371c1a75a91ull;
constexpr std::uint64_t kObsGolden = 0xf6dc0a6cb765f6c5ull;

/// FNV-1a over padding-free stats blocks.
class Fold {
 public:
  template <class T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::has_unique_object_representations_v<T>,
                  "fold only padding-free integer blocks");
    const auto* b = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) h_ = (h_ ^ b[i]) * kPrime;
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint64_t>(s.size()));
    for (char c : s) pod(c);
  }
  void result(const runner::RunResult& r) {
    str(r.app);
    pod(static_cast<std::uint64_t>(r.scheme));
    pod(r.makespan);
    pod(r.sim_events);
    for (std::size_t b = 0; b < sim::kNumBuckets; ++b) {
      pod(r.breakdown.get(static_cast<sim::Bucket>(b)));
    }
    pod(r.htm);
    pod(r.conflicts);
    pod(r.vm);
    pod(r.mem);
    pod(static_cast<std::uint8_t>(r.has_suv));
    pod(r.table);
    pod(r.suv);
    pod(r.pool_lines_in_use);
    pod(static_cast<std::uint64_t>(r.redirect_entries_live));
    pod(static_cast<std::uint8_t>(r.has_dyntm));
    pod(r.dyntm);
  }
  void metrics(const obs::MetricsSnapshot& m) {
    pod(static_cast<std::uint64_t>(m.scalars.size()));
    for (const auto& [name, v] : m.scalars) {
      str(name);
      pod(std::bit_cast<std::uint64_t>(v));
    }
    pod(static_cast<std::uint64_t>(m.histograms.size()));
    for (const obs::HistogramSnapshot& h : m.histograms) {
      str(h.name);
      pod(h.data);
      pod(static_cast<std::uint8_t>(h.linear));
    }
    pod(static_cast<std::uint64_t>(m.series.size()));
    for (const obs::SeriesSnapshot& s : m.series) {
      str(s.name);
      pod(static_cast<std::uint64_t>(s.points.size()));
      for (const obs::SeriesPoint& p : s.points) {
        pod(p.t);
        pod(p.v);
      }
    }
  }
  void trace(const obs::TraceData& t) {
    pod(static_cast<std::uint64_t>(t.events.size()));
    for (const obs::TraceEvent& e : t.events) {
      pod(e.ts);
      pod(e.dur);
      pod(e.addr);
      pod(e.a);
      pod(e.b);
      pod(static_cast<std::uint8_t>(e.kind));
      pod(e.cause);
      pod(e.core);
    }
    pod(t.dropped);
  }
  std::uint64_t value() const { return h_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

sim::SimConfig base_cfg(sim::Scheme scheme, bool obs = false) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.obs.trace = obs;
  cfg.obs.metrics = obs;
  return cfg;
}

/// Simulator events never allocate an at() callback record, and a domain
/// never has more than one bucketed event pending per core: its node pool
/// holds at most that many plus the node held while its event dispatches.
void expect_event_pools(sim::Simulator& sim, const std::string& what) {
  const std::size_t cores = sim.shard_map().cores_per_shard;
  for (std::uint32_t d = 0; d < sim.num_domains(); ++d) {
    EXPECT_EQ(sim.scheduler(d).callbacks(), 0u)
        << what << " domain " << d << " scheduled an at() callback";
    EXPECT_LE(sim.scheduler(d).node_pool_size(), cores + 1)
        << what << " domain " << d << " had more than one event per core";
  }
}

/// NACK retries the scheduler re-linked without a conflict re-check.
std::uint64_t parked_wakes(sim::Simulator& sim) {
  std::uint64_t n = 0;
  for (std::uint32_t d = 0; d < sim.num_domains(); ++d) {
    n += sim.scheduler(d).parked_wakes();
  }
  return n;
}

runner::RunResult run_stamp(stamp::AppId app, sim::Scheme scheme,
                            obs::TraceData* trace = nullptr) {
  sim::Simulator sim(base_cfg(scheme, trace != nullptr));
  stamp::SuiteParams params;
  params.scale = 0.05;
  auto workload = stamp::make_workload(app);
  workload->build(sim, params);
  sim.run();
  workload->verify(sim);
  expect_event_pools(sim, stamp::app_name(app));
  if (app == stamp::AppId::kBayes) {
    EXPECT_GT(parked_wakes(sim), 0u)
        << "bayes under " << sim::scheme_name(scheme) << " parked no retry";
  }
  return runner::harvest_result(sim, stamp::app_name(app), trace);
}

runner::RunResult run_kv64(std::uint32_t host_threads,
                           obs::TraceData* trace = nullptr) {
  sim::SimConfig cfg = base_cfg(sim::Scheme::kSuv, trace != nullptr);
  cfg.obs.trace_mem = trace != nullptr;
  // Checker off for this point only: directory sharer masks are 32 bits
  // wide, so on a 64-core machine cores 32-63 alias onto 0-31 and the
  // coherence audit rejects the run (a known model defect, ROADMAP.md).
  // Fixing it changes 64-core results; this test pins today's.
  cfg.check.enabled = false;
  cfg.mem.num_cores = 64;
  cfg.mem.mesh_dim = 8;
  cfg.pdes.shards = 4;
  cfg.pdes.host_threads = host_threads;
  stamp::ShardedKvParams p;
  p.ops_per_thread = 200;
  p.txn_keys = 128;
  p.keys_per_txn = 4;
  p.remote_read_every = 8;
  p.seed = 1;
  sim::Simulator sim(cfg);
  stamp::ShardedKv wl(p);
  wl.build(sim);
  sim.run();
  wl.verify(sim);
  expect_event_pools(sim, "sharded_kv");
  EXPECT_GT(parked_wakes(sim), 0u) << "the 64-core point parked no retry";
  return runner::harvest_result(sim, "sharded_kv", trace);
}

TEST(GoldenDigest, IntegerStatsMatchTheCommittedConstant) {
  Fold fold;
  for (stamp::AppId app : {stamp::AppId::kBayes, stamp::AppId::kYada}) {
    for (sim::Scheme scheme : sim::all_schemes()) {
      fold.result(run_stamp(app, scheme));
    }
  }
  const runner::RunResult kv1 = run_kv64(1);
  const runner::RunResult kv4 = run_kv64(4);
  EXPECT_EQ(kv1, kv4);
  fold.result(kv1);
  fold.result(kv4);
  EXPECT_EQ(fold.value(), kGolden)
      << std::hex << "digest 0x" << fold.value()
      << ": a simulated result changed";
}

TEST(GoldenDigest, ObsTraceAndMetricsMatchTheCommittedConstant) {
  Fold fold;
  for (sim::Scheme scheme : {sim::Scheme::kSuv, sim::Scheme::kLogTmSe}) {
    obs::TraceData trace;
    const runner::RunResult r = run_stamp(stamp::AppId::kBayes, scheme, &trace);
    ASSERT_FALSE(r.metrics.series.empty()) << "no occupancy sample taken";
    ASSERT_FALSE(trace.events.empty());
    fold.result(r);
    fold.metrics(r.metrics);
    fold.trace(trace);
  }
  obs::TraceData trace1;
  obs::TraceData trace4;
  const runner::RunResult kv1 = run_kv64(1, &trace1);
  const runner::RunResult kv4 = run_kv64(4, &trace4);
  EXPECT_EQ(kv1, kv4);
  EXPECT_EQ(trace1, trace4);
  ASSERT_FALSE(kv1.metrics.series.empty()) << "no occupancy sample taken";
  fold.result(kv1);
  fold.metrics(kv1.metrics);
  fold.trace(trace1);
  EXPECT_EQ(fold.value(), kObsGolden)
      << std::hex << "digest 0x" << fold.value()
      << ": a trace event or metrics value changed";
}

}  // namespace
}  // namespace suvtm
