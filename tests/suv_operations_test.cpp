// The paper's Figure 4 operation sequences, executed end-to-end on the
// simulator with two interleaved transactions, checking the redirect
// table, summary signature and memory contents at every step.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "stamp/framework.hpp"
#include "vm/suv_vm.hpp"

namespace suvtm {
namespace {

class SuvOperationsTest : public ::testing::Test {
 protected:
  SuvOperationsTest() : sim_(make_cfg()) {
    vm_ = dynamic_cast<vm::SuvVm*>(&sim_.htm().vm());
  }

  static sim::SimConfig make_cfg() {
    sim::SimConfig cfg;
    cfg.scheme = sim::Scheme::kSuv;
    return cfg;
  }

  void run() { sim_.run(); }

  sim::Simulator sim_;
  vm::SuvVm* vm_ = nullptr;
};

// Figure 4(b): an un-redirected transactional load consults the summary,
// needs no table lookup, and reads the original location.
sim::ThreadTask fig4b(sim::Simulator& sim, vm::SuvVm& vm,
                      sim::ThreadContext& tc) {
  (void)sim;
  co_await tc.tx_begin(1);
  const auto before = vm.table().stats().summary_filtered;
  const std::uint64_t r1 = co_await tc.load(0x00 + 0x100000);
  EXPECT_EQ(r1, 12u);
  EXPECT_GT(vm.table().stats().summary_filtered, before);
  co_await tc.tx_commit();
}

TEST_F(SuvOperationsTest, Fig4b_UnredirectedLoad) {
  // Seed before run(): the checker snapshots the image at run start, so
  // host-side writes after that point would trip the untouched-word sweep.
  sim_.mem().store_word(0x00 + 0x100000, 12);
  sim_.spawn(0, fig4b(sim_, *vm_, sim_.context(0)));
  run();
  EXPECT_EQ(vm_->table().total_entries(), 0u);
}

// Figure 4(c): an un-redirected transactional store adds a redirect entry,
// bumps the entry pointer, and writes the value to the redirected slot.
sim::ThreadTask fig4c(sim::Simulator& sim, vm::SuvVm& vm,
                      sim::ThreadContext& tc) {
  co_await tc.tx_begin(1);
  co_await tc.store(0x40 + 0x100000, 99);
  const suv::RedirectEntry* e = vm.table().find(line_of(0x40 + 0x100000));
  EXPECT_NE(e, nullptr);
  if (!e) co_return;  // ASSERT_* would `return`, illegal in a coroutine
  EXPECT_EQ(e->state, suv::EntryState::kTxnRedirect);
  EXPECT_EQ(e->owner, tc.core());
  // The new value sits at the redirected address, the original is untouched.
  EXPECT_EQ(sim.mem().load_word(addr_of_line(e->target)), 99u);
  EXPECT_EQ(sim.mem().load_word(0x40 + 0x100000), 0u);
  co_await tc.tx_commit();
}

TEST_F(SuvOperationsTest, Fig4c_UnredirectedStoreAddsEntry) {
  sim_.spawn(0, fig4c(sim_, *vm_, sim_.context(0)));
  run();
  // Committed: the entry is now globally valid.
  const suv::RedirectEntry* e = vm_->table().find(line_of(0x40 + 0x100000));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, suv::EntryState::kGlobalRedirect);
}

// Figure 4(d): redirected load then redirected store. The store to an
// already-globally-redirected line toggles the entry back to the original
// address (delete-entry + add-entry on the same entry).
sim::ThreadTask fig4d_setup(sim::ThreadContext& tc) {
  co_await tc.tx_begin(1);
  co_await tc.store(0x100040, 54);
  co_await tc.tx_commit();
}

sim::ThreadTask fig4d_main(sim::Simulator& sim, vm::SuvVm& vm,
                           sim::ThreadContext& tc) {
  co_await tc.tx_begin(2);
  const std::uint64_t r3 = co_await tc.load(0x100040);
  EXPECT_EQ(r3, 54u);  // read through the global redirect
  co_await tc.store(0x100040, 55);
  const suv::RedirectEntry* e = vm.table().find(line_of(0x100040));
  EXPECT_NE(e, nullptr);
  if (!e) co_return;
  EXPECT_EQ(e->state, suv::EntryState::kTxnUnredirect);
  // New value back at the ORIGINAL address; old value kept at the target.
  EXPECT_EQ(sim.mem().load_word(0x100040), 55u);
  EXPECT_EQ(sim.mem().load_word(addr_of_line(e->target) | 0x40), 54u);
  co_await tc.tx_commit();
}

TEST_F(SuvOperationsTest, Fig4d_RedirectedLoadAndToggleStore) {
  sim_.spawn(0, fig4d_setup(sim_.context(0)));
  sim_.run();
  sim::Simulator sim2(make_cfg());  // fresh sim not needed; continue in-place
  sim_.spawn(1, fig4d_main(sim_, *vm_, sim_.context(1)));
  sim_.run();
  // Figure 4(e): after the toggle commit, the entry is gone and the
  // original address is canonical with the new value.
  EXPECT_EQ(vm_->table().find(line_of(0x100040)), nullptr);
  EXPECT_EQ(sim_.read_word_resolved(0x100040), 55u);
  EXPECT_EQ(vm_->suv_stats().entries_toggled, 1u);
  EXPECT_EQ(vm_->suv_stats().entries_deleted, 1u);
}

// Figure 4(f): abort converts transient entries back to their stable
// states without data movement.
sim::ThreadTask fig4f(sim::Simulator& sim, vm::SuvVm& vm,
                      sim::ThreadContext& tc) {
  co_await tc.tx_begin(3);
  co_await tc.store(0x200000, 100);
  EXPECT_EQ(vm.table().total_entries(), 1u);
  sim.htm().doom(tc.core());
  co_await tc.store(0x200040, 101);  // doomed: this access aborts
  EXPECT_TRUE(tc.take_abort());
  // Entry discarded; pre-transaction value visible untouched.
  EXPECT_EQ(vm.table().total_entries(), 0u);
  const std::uint64_t v = co_await tc.load(0x200000);
  EXPECT_EQ(v, 7u);
}

TEST_F(SuvOperationsTest, Fig4f_AbortRevertsTransientEntries) {
  sim_.mem().store_word(0x200000, 7);  // seed before the run-start snapshot
  sim_.spawn(0, fig4f(sim_, *vm_, sim_.context(0)));
  run();
  EXPECT_EQ(sim_.htm().stats().aborts, 1u);
}

// Two concurrent transactions: owner sees its redirected data, the
// neighbour's conflicting store is NACKed until the owner finishes.
sim::ThreadTask writer_txn(sim::ThreadContext& tc, Addr a, Cycle hold,
                           std::uint64_t val) {
  co_await tc.tx_begin(4);
  co_await tc.store(a, val);
  co_await tc.compute(hold);
  co_await tc.tx_commit();
}

TEST_F(SuvOperationsTest, ConflictingStoreWaitsForOwner) {
  const Addr a = 0x300000;
  sim_.spawn(0, writer_txn(sim_.context(0), a, 1500, 1));
  auto late = [](sim::ThreadContext& tc, Addr addr) -> sim::ThreadTask {
    co_await tc.compute(100);
    co_await stamp::atomically(tc, 5,
                               [&](sim::ThreadContext& t) -> sim::Task<void> {
      const std::uint64_t v = co_await t.load(addr);
      co_await t.store(addr, v + 10);
    });
  };
  sim_.spawn(1, late(sim_.context(1), a));
  run();
  // Serialized: 1 then +10.
  EXPECT_EQ(sim_.read_word_resolved(a), 11u);
  EXPECT_GT(sim_.breakdown(1).get(sim::Bucket::kStalled), 0u);
}

// Summary signatures: after a toggle-delete, the address may still test
// positive (stale bits are allowed) but lookups find no entry and pay no
// critical-path cost; after an abort of a fresh entry, the owner's summary
// sheds the address (counting removal).
TEST_F(SuvOperationsTest, SummaryMembershipFollowsEntryLifecycle) {
  const LineAddr line = line_of(0x100040);
  sim_.spawn(0, fig4d_setup(sim_.context(0)));
  sim_.run();
  EXPECT_TRUE(vm_->table().summary(0).test(line));   // owner added it
  EXPECT_TRUE(vm_->table().summary(5).test(line));   // publication spread it
  sim_.spawn(1, fig4d_main(sim_, *vm_, sim_.context(1)));
  sim_.run();
  // Deleted everywhere; with no aliasing members the bits clear exactly.
  EXPECT_EQ(vm_->table().find(line), nullptr);
}

}  // namespace
}  // namespace suvtm
