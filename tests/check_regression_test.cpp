// Regression tests for the latent invariant violations the structural
// auditor surfaced when it was first written:
//
//  1. L2 insertions on the writeback/forward paths discarded the victim, so
//     an L2 eviction could orphan L1 copies the inclusive L2 no longer
//     backed (fixed by routing every fill through l2_insert_with_recall).
//  2. SuvVm kept the running transaction's ownership list across
//     suspend_txn, so a later transaction on the same core would flash-flip
//     (publish or discard) the parked transaction's entries (fixed first by
//     parking the list in a per-core stash; the list now lives on the
//     descriptor, htm::Txn::redirected, which suspend_txn copies aside).
//  3. A lazy committer's committer-wins pass only walked RUNNING
//     transactions, so a suspended conflicting reader resumed and committed
//     against the published writes (fixed by HtmSystem::
//     doom_suspended_conflicting, called from DynTm's lazy commit).
#include <gtest/gtest.h>

#include "check/audit.hpp"
#include "mem/memory_system.hpp"
#include "sim/simulator.hpp"
#include "vm/dyntm.hpp"
#include "vm/suv_vm.hpp"

namespace suvtm {
namespace {

// ---- 1. L2 eviction must recall L1 copies (inclusion) ----------------------

TEST(L2RecallRegressionTest, WritebackPressureKeepsInclusion) {
  sim::MemParams p;
  p.l1_bytes = 4 * 1024;  // 64 lines per L1
  p.l1_assoc = 4;
  p.l2_bytes = 8 * 1024;  // 128 lines: far below the summed L1 capacity
  p.l2_assoc = 8;
  mem::MemorySystem mem(p);

  // Four cores dirty far more lines than the L2 holds: L1 evictions write
  // back through the L2 while other L1s still hold lines the L2 must evict
  // to make room -- the exact shape that used to orphan L1 copies.
  for (int round = 0; round < 4; ++round) {
    for (CoreId c = 0; c < 4; ++c) {
      for (Addr i = 0; i < 96; ++i) {
        mem.access(c, (i + 96 * c + 32 * round) * kLineBytes * 1, true);
      }
    }
  }
  EXPECT_GT(mem.stats().l2_recalls, 0u)
      << "workload did not exercise the L2 eviction-recall path";
  const auto v = check::audit_coherence(mem);
  EXPECT_TRUE(v.empty()) << v.front();
}

// ---- 2. Suspend must park the SUV ownership list ---------------------------

TEST(SuvSuspendRegressionTest, ParkedEntriesSurviveAnInterveningCommit) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  cfg.check.enabled = false;
  sim::Simulator sim(cfg);
  auto* suv = dynamic_cast<vm::SuvVm*>(&sim.htm().vm());
  ASSERT_NE(suv, nullptr);
  htm::HtmSystem& htm = sim.htm();
  const LineAddr parked_line = line_of(0xA000);
  const LineAddr commit_line = line_of(0xB000);

  // Transaction 1 redirects a line, then the thread is descheduled.
  htm::Txn& t = htm.txn(0);
  t.state = htm::TxnState::kRunning;
  suv->on_tx_store(t, 0xA000);
  t.write_lines.insert(parked_line);
  t.write_sig.add(parked_line);
  ASSERT_EQ(suv->table().find(parked_line)->state,
            suv::EntryState::kTxnRedirect);
  ASSERT_TRUE(htm.suspend_txn(0));
  {
    const auto v = check::audit_all(sim.mem(), htm, suv);
    EXPECT_TRUE(v.empty()) << v.front();
  }

  // Transaction 2 on the same core commits. Its flash flip must touch only
  // its own entry -- before the fix, the stale ownership list made it
  // publish the parked transaction's entry too.
  t.state = htm::TxnState::kRunning;
  suv->on_tx_store(t, 0xB000);
  t.write_lines.insert(commit_line);
  t.write_sig.add(commit_line);
  suv->commit_cost(t);
  suv->on_commit_done(t);
  t.reset_committed();
  ASSERT_NE(suv->table().find(parked_line), nullptr);
  EXPECT_EQ(suv->table().find(parked_line)->state,
            suv::EntryState::kTxnRedirect);
  EXPECT_EQ(suv->table().find(commit_line)->state,
            suv::EntryState::kGlobalRedirect);

  // Resume and abort transaction 1: exactly its own entry is discarded.
  ASSERT_TRUE(htm.resume_txn(0));
  htm::Txn& resumed = htm.txn(0);
  ASSERT_EQ(resumed.state, htm::TxnState::kRunning);
  resumed.state = htm::TxnState::kAborting;
  suv->on_abort_done(resumed);
  resumed.reset_attempt();
  EXPECT_EQ(suv->table().find(parked_line), nullptr);
  EXPECT_EQ(suv->table().find(commit_line)->state,
            suv::EntryState::kGlobalRedirect);
}

// ---- 3. Committer-wins must reach suspended victims ------------------------

TEST(SuspendedDoomRegressionTest, LazyCommitDoomsSuspendedReader) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kDynTm;
  cfg.check.enabled = false;
  sim::Simulator sim(cfg);
  auto* dyn = dynamic_cast<vm::DynTm*>(&sim.htm().vm());
  ASSERT_NE(dyn, nullptr);
  htm::HtmSystem& htm = sim.htm();

  // An eager reader of line 500 is descheduled mid-transaction.
  htm::Txn& victim = htm.txn(1);
  victim.state = htm::TxnState::kRunning;
  victim.site = 1;
  dyn->on_begin(victim);
  victim.lazy = false;
  victim.read_lines.insert(500);
  victim.read_sig.add(500);
  ASSERT_TRUE(htm.suspend_txn(1));

  // A lazy writer of the same line commits (committer wins). The victim
  // cannot be aborted while parked, so it must be doomed for resume.
  htm::Txn& committer = htm.txn(0);
  committer.state = htm::TxnState::kRunning;
  committer.site = 2;
  dyn->on_begin(committer);
  committer.lazy = true;
  committer.write_lines.insert(500);
  committer.write_sig.add(500);
  dyn->commit_cost(committer);
  EXPECT_GE(dyn->dyntm_stats().lazy_commit_dooms, 1u);

  ASSERT_TRUE(htm.resume_txn(1));
  EXPECT_TRUE(htm.txn(1).doomed) << "resumed reader would commit against "
                                    "the published write";
}

TEST(SuspendedDoomRegressionTest, DirectApiDoomsOnlyOverlappingVictims) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kLogTmSe;
  cfg.check.enabled = false;
  sim::Simulator sim(cfg);
  htm::HtmSystem& htm = sim.htm();

  htm::Txn& reader = htm.txn(1);
  reader.state = htm::TxnState::kRunning;
  reader.read_lines.insert(600);
  reader.read_sig.add(600);
  ASSERT_TRUE(htm.suspend_txn(1));
  htm::Txn& bystander = htm.txn(2);
  bystander.state = htm::TxnState::kRunning;
  bystander.read_lines.insert(700);
  bystander.read_sig.add(700);
  ASSERT_TRUE(htm.suspend_txn(2));

  htm::Txn& committer = htm.txn(0);
  committer.state = htm::TxnState::kRunning;
  committer.write_lines.insert(600);
  committer.write_sig.add(600);
  EXPECT_EQ(htm.doom_suspended_conflicting(committer), 1u);
  // Already-doomed victims are not counted twice.
  EXPECT_EQ(htm.doom_suspended_conflicting(committer), 0u);
  committer.reset_attempt();

  ASSERT_TRUE(htm.resume_txn(1));
  EXPECT_TRUE(htm.txn(1).doomed);
  ASSERT_TRUE(htm.resume_txn(2));
  EXPECT_FALSE(htm.txn(2).doomed);
}

}  // namespace
}  // namespace suvtm
