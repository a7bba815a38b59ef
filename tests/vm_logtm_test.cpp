#include <gtest/gtest.h>

#include "mem/memory_system.hpp"
#include "vm/logtm_se.hpp"

namespace suvtm::vm {
namespace {

class LogTmTest : public ::testing::Test {
 protected:
  LogTmTest() : mem_(sim::MemParams{}), vm_(params_, mem_), txn_(0, 2048, 2) {
    txn_.state = htm::TxnState::kRunning;
  }

  sim::HtmParams params_;
  mem::MemorySystem mem_;
  LogTmSe vm_;
  htm::Txn txn_;
};

TEST_F(LogTmTest, StoreStaysInPlace) {
  auto act = vm_.on_tx_store(txn_, 0x1000);
  EXPECT_EQ(act.target, 0x1000u);
  EXPECT_FALSE(act.buffered);
}

TEST_F(LogTmTest, FirstStoreToWordLogsOldValue) {
  mem_.store_word(0x1000, 99);
  vm_.on_tx_store(txn_, 0x1000);
  ASSERT_EQ(txn_.undo.size(), 1u);
  EXPECT_EQ(txn_.undo[0].first, 0x1000u);
  EXPECT_EQ(txn_.undo[0].second, 99u);
}

TEST_F(LogTmTest, RepeatStoreToSameWordLogsOnce) {
  auto a1 = vm_.on_tx_store(txn_, 0x1000);
  EXPECT_GT(a1.extra, 0u);
  auto a2 = vm_.on_tx_store(txn_, 0x1000);
  EXPECT_EQ(a2.extra, 0u);
  EXPECT_EQ(txn_.undo.size(), 1u);
}

TEST_F(LogTmTest, DistinctWordsInOneLineLogSeparately) {
  vm_.on_tx_store(txn_, 0x1000);
  vm_.on_tx_store(txn_, 0x1008);
  EXPECT_EQ(txn_.undo.size(), 2u);
}

TEST_F(LogTmTest, SubWordAddressesShareLogEntry) {
  vm_.on_tx_store(txn_, 0x1000);
  vm_.on_tx_store(txn_, 0x1003);  // same aligned word
  EXPECT_EQ(txn_.undo.size(), 1u);
}

TEST_F(LogTmTest, EveryEighthEntryCostsNewLogLine) {
  Cycle base = 0, with_line = 0;
  for (int i = 0; i < 9; ++i) {
    auto act = vm_.on_tx_store(txn_, 0x1000 + 8 * i);
    if (i == 0) with_line = act.extra;  // entry 1 opens the first line
    if (i == 1) base = act.extra;
  }
  EXPECT_EQ(with_line, kLogStoreExtra + kLogNewLineExtra);
  EXPECT_EQ(base, kLogStoreExtra);
}

TEST_F(LogTmTest, AbortCostScalesWithLogSize) {
  const Cycle empty = vm_.abort_cost(txn_);
  for (int i = 0; i < 10; ++i) vm_.on_tx_store(txn_, 0x1000 + 8 * i);
  const Cycle full = vm_.abort_cost(txn_);
  EXPECT_EQ(empty, params_.abort_trap_latency);
  EXPECT_EQ(full, params_.abort_trap_latency + 10 * kAbortPerEntry);
}

TEST_F(LogTmTest, AbortRestoresOldValuesNewestFirst) {
  mem_.store_word(0x1000, 1);
  vm_.on_tx_store(txn_, 0x1000);
  mem_.store_word(0x1000, 2);  // transactional new value, in place
  vm_.on_tx_store(txn_, 0x2000);
  mem_.store_word(0x2000, 5);
  vm_.on_abort_done(txn_);
  EXPECT_EQ(mem_.load_word(0x1000), 1u);
  EXPECT_EQ(mem_.load_word(0x2000), 0u);
}

TEST_F(LogTmTest, CommitIsConstantTime) {
  for (int i = 0; i < 100; ++i) vm_.on_tx_store(txn_, 0x1000 + 8 * i);
  EXPECT_LE(vm_.commit_cost(txn_), 10u);
}

TEST_F(LogTmTest, ResolveLoadIsIdentity) {
  auto act = vm_.resolve_load(0, &txn_, 0x5555);
  EXPECT_EQ(act.target, 0x5555u);
  EXPECT_EQ(act.extra, 0u);
  EXPECT_FALSE(act.buffered.has_value());
}

TEST_F(LogTmTest, SpecEvictionIsOverflowNotDegeneration) {
  vm_.on_spec_eviction(txn_, 5);
  EXPECT_EQ(vm_.stats().data_overflows, 1u);
  EXPECT_FALSE(txn_.degenerated);
}

}  // namespace
}  // namespace suvtm::vm
