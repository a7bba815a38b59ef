#include <gtest/gtest.h>

#include "mem/memory_system.hpp"
#include "vm/fastm.hpp"
#include "vm/logtm_se.hpp"

namespace suvtm::vm {
namespace {

class FasTmTest : public ::testing::Test {
 protected:
  FasTmTest() : mem_(sim::MemParams{}), vm_(params_, mem_), txn_(0, 2048, 2) {
    txn_.state = htm::TxnState::kRunning;
  }

  sim::HtmParams params_;
  mem::MemorySystem mem_;
  FasTm vm_;
  htm::Txn txn_;
};

TEST_F(FasTmTest, BeginWritesBackSharedDirtyData) {
  EXPECT_EQ(vm_.on_begin(txn_), FasTm::kBeginExtra);
}

TEST_F(FasTmTest, CleanLineStoreHasNoExtraCost) {
  auto act = vm_.on_tx_store(txn_, 0x1000);
  EXPECT_EQ(act.extra, 0u);
  EXPECT_EQ(act.target, 0x1000u);
}

TEST_F(FasTmTest, DirtyLineFirstWritePaysWriteback) {
  // Make the line dirty (M, non-speculative) in the L1 first.
  mem_.access(0, 0x1000, true);
  auto act = vm_.on_tx_store(txn_, 0x1000);
  EXPECT_EQ(act.extra, FasTm::kWritebackExtra);
}

TEST_F(FasTmTest, SecondWriteToLinePaysNothing) {
  mem_.access(0, 0x1000, true);
  vm_.on_tx_store(txn_, 0x1000);
  txn_.write_lines.insert(line_of(0x1000));  // caller does this after the hook
  auto act = vm_.on_tx_store(txn_, 0x1008);
  EXPECT_EQ(act.extra, 0u);
}

TEST_F(FasTmTest, FastAbortIsConstant) {
  for (int i = 0; i < 50; ++i) vm_.on_tx_store(txn_, 0x1000 + 8 * i);
  EXPECT_EQ(vm_.abort_cost(txn_), FasTm::kFlashAbort);
  EXPECT_EQ(vm_.fastm_stats().fast_aborts, 1u);
}

TEST_F(FasTmTest, SpecEvictionDegenerates) {
  vm_.on_tx_store(txn_, 0x1000);
  vm_.on_spec_eviction(txn_, line_of(0x1000));
  EXPECT_TRUE(txn_.degenerated);
  EXPECT_EQ(vm_.stats().degenerations, 1u);
  EXPECT_EQ(vm_.stats().spec_overflows, 1u);
}

TEST_F(FasTmTest, DegeneratedAbortWalksOnlyPostDegenerationEntries) {
  // Two words logged on the fast path (free), then degenerate, then three
  // more: the software walk covers exactly the three.
  vm_.on_tx_store(txn_, 0x1000);
  vm_.on_tx_store(txn_, 0x1008);
  vm_.on_spec_eviction(txn_, line_of(0x1000));
  vm_.on_tx_store(txn_, 0x2000);
  vm_.on_tx_store(txn_, 0x2008);
  vm_.on_tx_store(txn_, 0x2010);
  const Cycle cost = vm_.abort_cost(txn_);
  EXPECT_EQ(cost, FasTm::kFlashAbort + params_.abort_trap_latency +
                      3 * kAbortPerEntry);
  EXPECT_EQ(vm_.fastm_stats().slow_aborts, 1u);
}

TEST_F(FasTmTest, DegeneratedStoresPayLogCosts) {
  vm_.on_spec_eviction(txn_, 5);
  auto act = vm_.on_tx_store(txn_, 0x3000);
  EXPECT_GE(act.extra, kLogStoreExtra);
}

TEST_F(FasTmTest, AbortRestoresAllValuesEvenAfterDegeneration) {
  mem_.store_word(0x1000, 11);
  mem_.store_word(0x2000, 22);
  vm_.on_tx_store(txn_, 0x1000);
  mem_.store_word(0x1000, 111);
  vm_.on_spec_eviction(txn_, line_of(0x1000));
  vm_.on_tx_store(txn_, 0x2000);
  mem_.store_word(0x2000, 222);
  vm_.on_abort_done(txn_);
  EXPECT_EQ(mem_.load_word(0x1000), 11u);
  EXPECT_EQ(mem_.load_word(0x2000), 22u);
}

TEST_F(FasTmTest, AbortInvalidatesSpeculativeLines) {
  mem_.access(0, 0x1000, true);
  mem_.mark_speculative(0, line_of(0x1000));
  vm_.on_abort_done(txn_);
  EXPECT_EQ(mem_.l1(0).find(line_of(0x1000)), nullptr);
}

TEST_F(FasTmTest, CommitClearsSpeculativeBitsKeepsLines) {
  mem_.access(0, 0x1000, true);
  mem_.mark_speculative(0, line_of(0x1000));
  vm_.on_commit_done(txn_);
  auto* ln = mem_.l1(0).find(line_of(0x1000));
  ASSERT_NE(ln, nullptr);
  EXPECT_FALSE(ln->speculative);
}

TEST_F(FasTmTest, CommitCostConstant) {
  EXPECT_EQ(vm_.commit_cost(txn_), FasTm::kFlashCommit);
}

}  // namespace
}  // namespace suvtm::vm
