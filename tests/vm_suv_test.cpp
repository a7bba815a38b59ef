#include <gtest/gtest.h>

#include "mem/memory_system.hpp"
#include "vm/suv_vm.hpp"

namespace suvtm::vm {
namespace {

class SuvVmTest : public ::testing::Test {
 protected:
  SuvVmTest() : mem_(sim::MemParams{}), vm_(params_, mem_, 16),
                txn_(0, 2048, 2), other_(1, 2048, 2) {
    txn_.state = htm::TxnState::kRunning;
    other_.state = htm::TxnState::kRunning;
  }

  /// Complete the caller's side of a store: update the write set.
  htm::StoreAction store(htm::Txn& t, Addr a, std::uint64_t v) {
    auto act = vm_.on_tx_store(t, a);
    t.write_lines.insert(line_of(a));
    t.write_sig.add(line_of(a));
    mem_.store_word(act.target, v);
    return act;
  }

  std::uint64_t load_as(CoreId c, htm::Txn* t, Addr a) {
    auto act = vm_.resolve_load(c, t, a);
    return mem_.load_word(act.target);
  }

  sim::SuvParams params_;
  mem::MemorySystem mem_;
  SuvVm vm_;
  htm::Txn txn_;
  htm::Txn other_;
};

TEST_F(SuvVmTest, FreshStoreIsRedirectedToPool) {
  auto act = store(txn_, 0x1000, 42);
  EXPECT_NE(line_of(act.target), line_of(0x1000));
  EXPECT_TRUE(suv::PreservedPool::in_pool_region(line_of(act.target)));
  EXPECT_FALSE(act.buffered);
  // Word offset within the line is preserved.
  EXPECT_EQ(act.target & 63u, 0x1000u & 63u);
}

TEST_F(SuvVmTest, OwnerSeesNewValueOthersSeeOld) {
  mem_.store_word(0x1000, 7);  // pre-transaction value
  store(txn_, 0x1000, 42);
  EXPECT_EQ(load_as(0, &txn_, 0x1000), 42u);      // owner
  EXPECT_EQ(load_as(1, &other_, 0x1000), 7u);     // concurrent transaction
  EXPECT_EQ(load_as(5, nullptr, 0x1000), 7u);     // non-transactional
}

TEST_F(SuvVmTest, RedirectCopiesWholeLine) {
  // Neighbouring words in the same line must stay visible to the owner.
  mem_.store_word(0x1008, 77);
  store(txn_, 0x1000, 1);
  EXPECT_EQ(load_as(0, &txn_, 0x1008), 77u);
}

TEST_F(SuvVmTest, CommitPublishesNewValueToEveryone) {
  mem_.store_word(0x1000, 7);
  store(txn_, 0x1000, 42);
  vm_.commit_cost(txn_);
  vm_.on_commit_done(txn_);
  EXPECT_EQ(load_as(3, nullptr, 0x1000), 42u);
  EXPECT_EQ(vm_.suv_stats().entries_published, 1u);
}

TEST_F(SuvVmTest, AbortRevertsWithoutDataMovement) {
  mem_.store_word(0x1000, 7);
  store(txn_, 0x1000, 42);
  vm_.on_abort_done(txn_);
  EXPECT_EQ(load_as(0, nullptr, 0x1000), 7u);
  EXPECT_EQ(vm_.suv_stats().entries_discarded, 1u);
  EXPECT_EQ(vm_.table().total_entries(), 0u);
}

TEST_F(SuvVmTest, AbortCostConstantRegardlessOfWriteSet) {
  for (int i = 0; i < 100; ++i) store(txn_, 0x1000 + 64 * i, i);
  EXPECT_EQ(vm_.abort_cost(txn_), SuvVm::kFlashAbort);
}

TEST_F(SuvVmTest, SecondStoreToSameLineReusesEntry) {
  store(txn_, 0x1000, 1);
  const auto entries = vm_.suv_stats().entries_created;
  store(txn_, 0x1008, 2);
  EXPECT_EQ(vm_.suv_stats().entries_created, entries);
  EXPECT_EQ(load_as(0, &txn_, 0x1008), 2u);
}

TEST_F(SuvVmTest, ToggleRedirectsBackToOriginal) {
  mem_.store_word(0x1000, 7);
  store(txn_, 0x1000, 42);
  vm_.commit_cost(txn_);
  vm_.on_commit_done(txn_);
  txn_.reset_committed();
  txn_.state = htm::TxnState::kRunning;

  // A later transaction stores to the same (globally redirected) line.
  auto act = store(txn_, 0x1000, 99);
  EXPECT_EQ(line_of(act.target), line_of(0x1000));  // back at the original
  EXPECT_EQ(vm_.suv_stats().entries_toggled, 1u);
  // Owner sees 99; others still see the committed 42 from the pool line.
  EXPECT_EQ(load_as(0, &txn_, 0x1000), 99u);
  EXPECT_EQ(load_as(1, &other_, 0x1000), 42u);
}

TEST_F(SuvVmTest, ToggleCommitDeletesEntry) {
  store(txn_, 0x1000, 42);
  vm_.commit_cost(txn_);
  vm_.on_commit_done(txn_);
  txn_.reset_committed();
  txn_.state = htm::TxnState::kRunning;
  store(txn_, 0x1000, 99);
  vm_.commit_cost(txn_);
  vm_.on_commit_done(txn_);
  EXPECT_EQ(vm_.table().total_entries(), 0u);
  EXPECT_EQ(vm_.suv_stats().entries_deleted, 1u);
  EXPECT_EQ(load_as(4, nullptr, 0x1000), 99u);  // original address is live
}

TEST_F(SuvVmTest, ToggleAbortRestoresGlobalRedirect) {
  store(txn_, 0x1000, 42);
  vm_.commit_cost(txn_);
  vm_.on_commit_done(txn_);
  txn_.reset_committed();
  txn_.state = htm::TxnState::kRunning;
  store(txn_, 0x1000, 99);
  vm_.on_abort_done(txn_);
  EXPECT_EQ(load_as(4, nullptr, 0x1000), 42u);  // committed value survives
  EXPECT_EQ(vm_.table().total_entries(), 1u);
}

TEST_F(SuvVmTest, ToggledLineReusableAfterDeletion) {
  // Full cycle: redirect -> publish -> toggle -> delete -> redirect again.
  store(txn_, 0x1000, 1);
  vm_.commit_cost(txn_);
  vm_.on_commit_done(txn_);
  txn_.reset_committed();
  txn_.state = htm::TxnState::kRunning;
  store(txn_, 0x1000, 2);
  vm_.commit_cost(txn_);
  vm_.on_commit_done(txn_);
  txn_.reset_committed();
  txn_.state = htm::TxnState::kRunning;
  store(txn_, 0x1000, 3);
  vm_.commit_cost(txn_);
  vm_.on_commit_done(txn_);
  EXPECT_EQ(load_as(2, nullptr, 0x1000), 3u);
}

TEST_F(SuvVmTest, CommitCostConstantWithinTableCapacity) {
  for (int i = 0; i < 100; ++i) store(txn_, 0x10000 + 64 * i, i);
  EXPECT_EQ(vm_.commit_cost(txn_), SuvVm::kFlashCommit);
}

TEST_F(SuvVmTest, TableOverflowRaisesCommitCost) {
  for (std::uint32_t i = 0; i < params_.l1_table_entries + 10; ++i) {
    store(txn_, 0x100000 + static_cast<Addr>(64) * i, i);
  }
  EXPECT_GT(vm_.commit_cost(txn_), SuvVm::kFlashCommit);
  EXPECT_EQ(vm_.suv_stats().table_overflow_txns, 1u);
}

TEST_F(SuvVmTest, PoolLinesReleasedOnAbort) {
  store(txn_, 0x1000, 1);
  store(txn_, 0x2000, 2);
  EXPECT_EQ(vm_.pool(0).lines_in_use(), 2u);
  vm_.on_abort_done(txn_);
  EXPECT_EQ(vm_.pool(0).lines_in_use(), 0u);
}

TEST_F(SuvVmTest, DebugResolveFollowsGlobalEntries) {
  mem_.store_word(0x1000, 7);
  store(txn_, 0x1000, 42);
  vm_.commit_cost(txn_);
  vm_.on_commit_done(txn_);
  const Addr resolved = vm_.debug_resolve(kNoCore, 0x1008);
  EXPECT_NE(line_of(resolved), line_of(0x1008));
  EXPECT_EQ(resolved & 63u, 8u);
}

TEST_F(SuvVmTest, ConcurrentTransactionsUseDistinctPoolLines) {
  auto a = store(txn_, 0x1000, 1);
  auto b = store(other_, 0x2000, 2);
  EXPECT_NE(line_of(a.target), line_of(b.target));
  EXPECT_EQ(load_as(0, &txn_, 0x1000), 1u);
  EXPECT_EQ(load_as(1, &other_, 0x2000), 2u);
}

}  // namespace
}  // namespace suvtm::vm
