// The sharded runtime's host profile (sim::PdesProfile): its event counts
// are deterministic and account for every event, and its host timings are
// shaped the way DESIGN.md section 14 reads them. The per-domain counters
// are written from the window loop's worker threads, so CI also runs this
// test under tsan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "sim/simulator.hpp"
#include "stamp/sharded_kv.hpp"

namespace suvtm {
namespace {

sim::PdesProfile run_sharded(std::uint32_t host_threads,
                             std::uint64_t* events) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  cfg.mem.num_cores = 16;
  cfg.pdes.shards = 4;
  cfg.pdes.host_threads = host_threads;
  cfg.obs.trace = false;
  cfg.obs.metrics = false;
  stamp::ShardedKvParams p;
  p.ops_per_thread = 64;
  sim::Simulator sim(cfg);
  stamp::ShardedKv wl(p);
  wl.build(sim);
  sim.run();
  wl.verify(sim);
  *events = sim.events_processed();
  return sim.pdes_profile();
}

TEST(PdesProfile, DomainEventsSumToTheRunAndIgnoreHostThreads) {
  std::uint64_t events1 = 0;
  std::uint64_t events4 = 0;
  const sim::PdesProfile p1 = run_sharded(1, &events1);
  const sim::PdesProfile p4 = run_sharded(4, &events4);
  for (const sim::PdesProfile* p : {&p1, &p4}) {
    ASSERT_EQ(p->domain_events.size(), 4u);
    std::uint64_t sum = 0;
    for (std::uint64_t e : p->domain_events) {
      EXPECT_GT(e, 0u);
      sum += e;
    }
    EXPECT_EQ(sum, p == &p1 ? events1 : events4);
  }
  EXPECT_EQ(p1.domain_events, p4.domain_events);
  EXPECT_EQ(p1.windows, p4.windows);
  EXPECT_GT(p1.windows, 0u);
  EXPECT_EQ(p1.host_threads, 1u);
  EXPECT_EQ(p4.host_threads, 4u);
  EXPECT_EQ(p1.thread_wait_s.size(), 1u);
  EXPECT_EQ(p4.thread_wait_s.size(), 4u);
}

TEST(PdesProfile, CriticalPathBoundsTheImbalanceSpeedup) {
  std::uint64_t events = 0;
  const sim::PdesProfile p = run_sharded(4, &events);
  ASSERT_EQ(p.domain_busy_s.size(), 4u);
  double busy = 0.0;
  double slowest = 0.0;
  for (double b : p.domain_busy_s) {
    EXPECT_GE(b, 0.0);
    busy += b;
    slowest = std::max(slowest, b);
  }
  // The critical path takes each window's slowest domain: at least any one
  // domain's total, at most all domains' total.
  EXPECT_GE(p.critical_path_s, slowest * (1.0 - 1e-9));
  EXPECT_LE(p.critical_path_s, busy * (1.0 + 1e-9));
  EXPECT_GE(p.imbalance_bound(), 1.0 - 1e-9);
  EXPECT_LE(p.imbalance_bound(), 4.0 + 1e-9);
  EXPECT_GE(p.merge_s, 0.0);
}

TEST(PdesProfile, MonolithicRunsHaveNoProfile) {
  sim::SimConfig cfg;
  cfg.mem.num_cores = 4;
  stamp::ShardedKvParams p;
  p.ops_per_thread = 16;
  sim::Simulator sim(cfg);
  stamp::ShardedKv wl(p);
  wl.build(sim);
  sim.run();
  EXPECT_EQ(sim.pdes_profile().host_threads, 0u);
  EXPECT_TRUE(sim.pdes_profile().domain_events.empty());
}

}  // namespace
}  // namespace suvtm
