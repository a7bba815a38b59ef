// ThreadContext-level behaviour: cost accounting, exclusive loads, backoff
// growth, stall retries, non-transactional accounting and access ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/simulator.hpp"
#include "stamp/framework.hpp"

namespace suvtm::sim {
namespace {

SimConfig cfg_logtm() {
  SimConfig cfg;
  cfg.scheme = Scheme::kLogTmSe;
  return cfg;
}

ThreadTask single_op(ThreadContext& tc, Addr a, bool store) {
  if (store) co_await tc.store(a, 1);
  else co_await tc.load(a);
}

TEST(ThreadContextTest, NonTxAccessChargedToNoTrans) {
  Simulator sim(cfg_logtm());
  sim.spawn(0, single_op(sim.context(0), 0x1000, false));
  sim.run();
  EXPECT_GT(sim.breakdown(0).get(Bucket::kNoTrans), 0u);
  EXPECT_EQ(sim.breakdown(0).get(Bucket::kTrans), 0u);
}

ThreadTask tx_op(ThreadContext& tc, Addr a) {
  co_await tc.tx_begin(1);
  co_await tc.load(a);
  co_await tc.store(a, 7);
  co_await tc.tx_commit();
}

TEST(ThreadContextTest, CommittedTxChargedToTrans) {
  Simulator sim(cfg_logtm());
  sim.spawn(0, tx_op(sim.context(0), 0x1000));
  sim.run();
  EXPECT_GT(sim.breakdown(0).get(Bucket::kTrans), 0u);
  EXPECT_EQ(sim.breakdown(0).get(Bucket::kWasted), 0u);
  EXPECT_EQ(sim.mem().load_word(0x1000), 7u);
}

ThreadTask doomed_then_retry(ThreadContext& tc, Addr a, int* attempts) {
  co_await stamp::atomically(tc, 1, [&](ThreadContext& t) -> Task<void> {
    ++*attempts;
    co_await t.load(a);
    co_await t.store(a, 1);
    if (*attempts == 1) {
      // Simulate an incoming conflict dooming this transaction mid-flight.
      co_await t.compute(1);
    }
  });
}

TEST(ThreadContextTest, AbortedAttemptChargedToWastedAndAborting) {
  Simulator sim(cfg_logtm());
  int attempts = 0;
  // Doom the transaction from outside after it started.
  sim.scheduler().at(3, [&] { sim.htm().doom(0); });
  sim.spawn(0, doomed_then_retry(sim.context(0), 0x1000, &attempts));
  sim.run();
  EXPECT_GE(attempts, 2);
  EXPECT_GT(sim.breakdown(0).get(Bucket::kWasted), 0u);
  EXPECT_GT(sim.breakdown(0).get(Bucket::kAborting), 0u);
  EXPECT_GT(sim.breakdown(0).get(Bucket::kBackoff), 0u);
  EXPECT_EQ(sim.htm().stats().aborts, 1u);
  EXPECT_EQ(sim.read_word_resolved(0x1000), 1u);
}

ThreadTask rmw_op(ThreadContext& tc, Addr a) {
  co_await tc.tx_begin(1);
  const std::uint64_t v = co_await tc.load_rmw(a);
  co_await tc.store(a, v + 1);
  co_await tc.tx_commit();
}

TEST(ThreadContextTest, LoadRmwTakesExclusivePermissionUpFront) {
  Simulator sim(cfg_logtm());
  sim.spawn(0, rmw_op(sim.context(0), 0x2000));
  sim.run();
  // After the rmw load, the line is Modified; the following store was a
  // 1-cycle hit, and the line entered both signatures at the load.
  EXPECT_EQ(sim.mem().load_word(0x2000), 1u);
  // Verify via a second simulator step: one GETM total (no upgrade miss).
  EXPECT_EQ(sim.mem().stats().l1_misses, 1u);
}

ThreadTask stall_victim(ThreadContext& tc, Addr a, Cycle* stalled_out) {
  co_await tc.tx_begin(1);
  co_await tc.store(a, 42);
  // Hold the line for a long time.
  co_await tc.compute(2000);
  co_await tc.tx_commit();
  *stalled_out = tc.breakdown().get(Bucket::kStalled);
}

ThreadTask stall_requester(ThreadContext& tc, Addr a) {
  co_await tc.compute(100);  // let the victim acquire the line first
  co_await tc.tx_begin(2);
  co_await tc.load(a);  // NACKed until the holder commits
  co_await tc.tx_commit();
}

TEST(ThreadContextTest, NackedRequesterAccumulatesStalledTime) {
  Simulator sim(cfg_logtm());
  Cycle unused = 0;
  sim.spawn(0, stall_victim(sim.context(0), 0x3000, &unused));
  sim.spawn(1, stall_requester(sim.context(1), 0x3000));
  sim.run();
  // The requester stalled for roughly the holder's 2000-cycle compute.
  EXPECT_GT(sim.breakdown(1).get(Bucket::kStalled), 1000u);
  EXPECT_EQ(sim.htm().stats().aborts, 0u);  // pure stall, no deadlock
  EXPECT_EQ(sim.read_word_resolved(0x3000), 42u);
}

// Aborts one transaction `n` times in a row, recording the backoff wait
// after each attempt (the attempt count grows, so the ceiling doubles).
ThreadTask backoff_prober(ThreadContext& tc, htm::HtmSystem& htm, int n,
                          std::vector<Cycle>* out) {
  for (int i = 0; i < n; ++i) {
    co_await tc.tx_begin(1);
    htm.doom(tc.core());
    co_await tc.load(0x1000);  // a doomed transaction's access aborts it
    EXPECT_TRUE(tc.take_abort());
    const Cycle before = tc.breakdown().get(Bucket::kBackoff);
    co_await tc.backoff();
    out->push_back(tc.breakdown().get(Bucket::kBackoff) - before);
  }
}

TEST(ThreadContextTest, BackoffIsBoundedByCap) {
  // From the 7th attempt on, kBackoffBase << attempts exceeds the cap.
  static_assert((ThreadContext::kBackoffBase << 7) >
                ThreadContext::kBackoffCap);
  Simulator sim(cfg_logtm());
  std::vector<Cycle> waits;
  sim.spawn(0, backoff_prober(sim.context(0), sim.htm(), 20, &waits));
  sim.run();
  ASSERT_EQ(waits.size(), 20u);
  EXPECT_EQ(sim.htm().stats().aborts, 20u);
  for (Cycle w : waits) {
    EXPECT_GE(w, ThreadContext::kBackoffBase);
    EXPECT_LE(w, ThreadContext::kBackoffCap);
  }
  EXPECT_GT(*std::max_element(waits.begin() + 6, waits.end()),
            ThreadContext::kBackoffBase);
}

ThreadTask compute_only(ThreadContext& tc) {
  co_await tc.compute(500);
}

TEST(ThreadContextTest, ComputeOutsideTxIsNoTrans) {
  Simulator sim(cfg_logtm());
  sim.spawn(0, compute_only(sim.context(0)));
  sim.run();
  EXPECT_EQ(sim.breakdown(0).get(Bucket::kNoTrans), 500u);
}

ThreadTask hit_reader(ThreadContext& tc, const Scheduler& sched, Addr a,
                      int n, Cycle* t0, std::vector<std::uint64_t>* seen) {
  co_await tc.load(a);  // cold miss: every later load hits in L1
  *t0 = sched.now();
  for (int i = 0; i < n; ++i) seen->push_back(co_await tc.load(a));
}

ThreadTask late_writer(ThreadContext& tc, const Scheduler& sched, Addr a,
                       Cycle* t_issue) {
  co_await tc.compute(300);
  *t_issue = sched.now();
  co_await tc.store(a, 1);
}

// Every access happens at its logical cycle: a stream of non-transactional
// L1 hits cannot run ahead of the scheduler clock, so a load issued after
// another core's store reads the stored value. Only the loads issued in
// [t0, t_issue] (one per cycle) may read the old value.
TEST(ThreadContextTest, NonTxLoadSeesEveryEarlierStore) {
  Simulator sim(cfg_logtm());
  constexpr Addr kX = 0x4000;
  Cycle t0 = 0;
  Cycle t_issue = 0;
  std::vector<std::uint64_t> seen;
  sim.spawn(0, hit_reader(sim.context(0), sim.scheduler(), kX, 300, &t0,
                          &seen));
  sim.spawn(1, late_writer(sim.context(1), sim.scheduler(), kX, &t_issue));
  sim.run();
  ASSERT_EQ(seen.size(), 300u);
  EXPECT_EQ(seen.back(), 1u);
  const auto stale = static_cast<Cycle>(
      std::find_if(seen.begin(), seen.end(),
                   [](std::uint64_t v) { return v != 0; }) -
      seen.begin());
  ASSERT_LT(t0, t_issue);
  EXPECT_LE(stale, t_issue - t0 + 1);
}

TEST(ThreadContextTest, InTxReflectsState) {
  Simulator sim(cfg_logtm());
  auto body = [](ThreadContext& tc) -> ThreadTask {
    EXPECT_FALSE(tc.in_tx());
    co_await tc.tx_begin(1);
    EXPECT_TRUE(tc.in_tx());
    co_await tc.tx_commit();
    EXPECT_FALSE(tc.in_tx());
  };
  sim.spawn(0, body(sim.context(0)));
  sim.run();
}

}  // namespace
}  // namespace suvtm::sim
