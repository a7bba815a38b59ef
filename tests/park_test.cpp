// End-to-end parked NACK retries: contended runs park, and the structural
// audit that re-derives every parked core's decision (check::audit_parked,
// part of every sampled audit) runs at every commit without finding a park
// whose decision went stale. The sharded case runs a 4-shard machine at 1,
// 2 and 4 host threads; CI also runs it under tsan, since each domain's
// parked wake records are touched only by the host thread driving it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "stamp/sharded_kv.hpp"

namespace suvtm {
namespace {

sim::SimConfig audited_cfg(sim::Scheme scheme) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.check.enabled = true;
  cfg.check.audit_period = 1;  // every commit audits every parked core
  return cfg;
}

std::vector<std::uint64_t> parked_per_domain(sim::Simulator& sim) {
  std::vector<std::uint64_t> n;
  for (std::uint32_t d = 0; d < sim.num_domains(); ++d) {
    n.push_back(sim.scheduler(d).parked_wakes());
  }
  return n;
}

TEST(ParkedRetryTest, AuditedAtEveryCommitUnderEveryScheme) {
  for (sim::Scheme scheme : sim::all_schemes()) {
    std::uint64_t parked = 0;
    for (stamp::AppId app : {stamp::AppId::kBayes, stamp::AppId::kIntruder}) {
      sim::Simulator sim(audited_cfg(scheme));
      stamp::SuiteParams params;
      params.scale = 0.05;
      auto workload = stamp::make_workload(app);
      workload->build(sim, params);
      sim.run();  // throws check::CheckFailure on a stale park
      workload->verify(sim);
      EXPECT_GT(sim.checker()->audits_run(), 0u);
      parked += sim.scheduler().parked_wakes();
    }
    EXPECT_GT(parked, 0u) << sim::scheme_name(scheme) << " parked nothing";
  }
}

TEST(ParkedRetryTest, ShardedMachineParksIdenticallyAtAnyHostThreadCount) {
  std::vector<runner::RunResult> results;
  std::vector<std::vector<std::uint64_t>> parked;
  for (std::uint32_t threads : {1u, 2u, 4u}) {
    sim::SimConfig cfg = audited_cfg(sim::Scheme::kSuv);
    cfg.pdes.shards = 4;
    cfg.pdes.host_threads = threads;
    stamp::ShardedKvParams p;
    p.ops_per_thread = 100;
    p.txn_keys = 8;  // a hot arena per shard: NACKs are frequent
    p.seed = 3;
    sim::Simulator sim(cfg);
    stamp::ShardedKv wl(p);
    wl.build(sim);
    sim.run();
    wl.verify(sim);
    results.push_back(runner::harvest_result(sim, "sharded_kv"));
    parked.push_back(parked_per_domain(sim));
  }
  std::uint64_t total = 0;
  for (std::uint64_t n : parked[0]) total += n;
  EXPECT_GT(total, 0u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "run " << i;
    EXPECT_EQ(parked[i], parked[0]) << "run " << i;
  }
}

}  // namespace
}  // namespace suvtm
