// Golden digest: the integer statistics of a fixed set of runs folded into
// one committed constant. Host-performance work must leave every simulated
// result bit-identical, so this constant only changes with a change that
// states a semantic change to the model (and says why).
//
// The runs: bayes and yada at scale 0.05 under all five schemes, and one
// 64-core 4-shard ShardedKv point at 1 and at 4 host threads. The same
// runs also pin that simulator events never park in the scheduler's
// SmallFn slot pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>

#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "stamp/sharded_kv.hpp"

namespace suvtm {
namespace {

constexpr std::uint64_t kGolden = 0xba743371c1a75a91ull;

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
  std::uint64_t value() const { return h_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

sim::SimConfig base_cfg(sim::Scheme scheme) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.obs.trace = false;
  cfg.obs.metrics = false;
  return cfg;
}

void expect_empty_slot_pools(sim::Simulator& sim, const std::string& what) {
  for (std::uint32_t d = 0; d < sim.num_domains(); ++d) {
    EXPECT_EQ(sim.scheduler(d).slot_pool_capacity(), 0u)
        << what << " domain " << d << " parked a SmallFn callback";
  }
}

runner::RunResult run_stamp(stamp::AppId app, sim::Scheme scheme) {
  sim::Simulator sim(base_cfg(scheme));
  stamp::SuiteParams params;
  params.scale = 0.05;
  auto workload = stamp::make_workload(app);
  workload->build(sim, params);
  sim.run();
  workload->verify(sim);
  expect_empty_slot_pools(sim, stamp::app_name(app));
  return runner::harvest_result(sim, stamp::app_name(app));
}

runner::RunResult run_kv64(std::uint32_t host_threads) {
  sim::SimConfig cfg = base_cfg(sim::Scheme::kSuv);
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
  expect_empty_slot_pools(sim, "sharded_kv");
  return runner::harvest_result(sim, "sharded_kv");
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

}  // namespace
}  // namespace suvtm
