#include <gtest/gtest.h>

#include "htm/htm_system.hpp"
#include "mem/memory_system.hpp"
#include "sim/simulator.hpp"
#include "vm/dyntm.hpp"
#include "vm/fastm.hpp"

namespace suvtm::vm {
namespace {

TEST(ModeSelectorTest, StartsAtThresholdPredictingLazy) {
  ModeSelector s;
  EXPECT_TRUE(s.predict_lazy(1));
}

TEST(ModeSelectorTest, CommitsDriftTowardEager) {
  ModeSelector s;
  s.record_commit(1, /*was_lazy=*/true);
  s.record_commit(1, true);
  EXPECT_FALSE(s.predict_lazy(1));
}

TEST(ModeSelectorTest, EagerAbortsPushTowardLazy) {
  ModeSelector s;
  s.record_commit(1, false);
  s.record_commit(1, false);
  EXPECT_FALSE(s.predict_lazy(1));
  s.record_abort(1, /*was_lazy=*/false);
  s.record_abort(1, false);
  EXPECT_TRUE(s.predict_lazy(1));
}

TEST(ModeSelectorTest, LazyAbortsPushTowardEager) {
  ModeSelector s;
  EXPECT_TRUE(s.predict_lazy(1));
  s.record_abort(1, /*was_lazy=*/true);
  s.record_abort(1, true);
  EXPECT_FALSE(s.predict_lazy(1));
}

TEST(ModeSelectorTest, CounterSaturates) {
  ModeSelector s;
  for (int i = 0; i < 10; ++i) s.record_abort(1, false);
  for (int i = 0; i < 3; ++i) s.record_commit(1, false);
  EXPECT_FALSE(s.predict_lazy(1));  // 3 -> 0 after three commits
}

TEST(ModeSelectorTest, SitesAreIndependent) {
  ModeSelector s;
  s.record_commit(1, false);
  s.record_commit(1, false);
  EXPECT_FALSE(s.predict_lazy(1));
  EXPECT_TRUE(s.predict_lazy(2));
}

// DynTM behaviour through the HtmSystem plumbing.
class DynTmTest : public ::testing::Test {
 protected:
  DynTmTest() {
    cfg_.scheme = sim::Scheme::kDynTm;
    mem_ = std::make_unique<mem::MemorySystem>(cfg_.mem);
    htm_ = std::make_unique<htm::HtmSystem>(
        cfg_, *mem_, sim::make_version_manager(cfg_, *mem_));
    dyn_ = dynamic_cast<DynTm*>(&htm_->vm());
  }

  htm::Txn& begin(CoreId c, bool force_lazy) {
    htm::Txn& t = htm_->txn(c);
    t.state = htm::TxnState::kRunning;
    t.site = 1;
    dyn_->on_begin(t);
    t.lazy = force_lazy;  // tests pin the mode explicitly
    return t;
  }

  sim::SimConfig cfg_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<htm::HtmSystem> htm_;
  DynTm* dyn_ = nullptr;
};

TEST_F(DynTmTest, FactoryBuildsDynTm) {
  ASSERT_NE(dyn_, nullptr);
  EXPECT_STREQ(dyn_->name(), "DynTM");
}

TEST_F(DynTmTest, LazyStoresAreBuffered) {
  htm::Txn& t = begin(0, true);
  auto act = dyn_->on_tx_store(t, 0x1000);
  EXPECT_TRUE(act.buffered);
}

TEST_F(DynTmTest, EagerStoresGoInPlace) {
  htm::Txn& t = begin(0, false);
  auto act = dyn_->on_tx_store(t, 0x1000);
  EXPECT_FALSE(act.buffered);
  EXPECT_EQ(act.target, 0x1000u);
}

TEST_F(DynTmTest, LazyLoadSeesOwnBufferedWrite) {
  htm::Txn& t = begin(0, true);
  t.redo[0x1000] = 55;
  auto act = dyn_->resolve_load(0, &t, 0x1000);
  ASSERT_TRUE(act.buffered.has_value());
  EXPECT_EQ(*act.buffered, 55u);
}

TEST_F(DynTmTest, LazyLoadMissesBufferFallsToMemory) {
  htm::Txn& t = begin(0, true);
  auto act = dyn_->resolve_load(0, &t, 0x2000);
  EXPECT_FALSE(act.buffered.has_value());
  EXPECT_EQ(act.target, 0x2000u);
}

TEST_F(DynTmTest, LazyCommitPublishesRedoBuffer) {
  htm::Txn& t = begin(0, true);
  t.redo[0x1000] = 77;
  t.write_lines.insert(line_of(0x1000));
  dyn_->commit_cost(t);
  dyn_->on_commit_done(t);
  EXPECT_EQ(mem_->load_word(0x1000), 77u);
}

TEST_F(DynTmTest, LazyCommitCostScalesWithWriteSet) {
  htm::Txn& t = begin(0, true);
  for (int i = 0; i < 10; ++i) t.write_lines.insert(100 + i);
  const Cycle ten = dyn_->commit_cost(t);
  for (int i = 10; i < 20; ++i) t.write_lines.insert(100 + i);
  const Cycle twenty = dyn_->commit_cost(t);
  EXPECT_EQ(twenty - ten, 10 * DynTm::kPublishPerLine);
}

TEST_F(DynTmTest, LazyAbortDiscardsBufferCheaply) {
  htm::Txn& t = begin(0, true);
  t.redo[0x1000] = 77;
  EXPECT_EQ(dyn_->abort_cost(t), DynTm::kLazyAbort);
  dyn_->on_abort_done(t);
  EXPECT_EQ(mem_->load_word(0x1000), 0u);  // never reached memory
}

TEST_F(DynTmTest, LazyCommitterDoomsConflictingReaders) {
  htm::Txn& committer = begin(0, true);
  committer.write_lines.insert(500);
  committer.write_sig.add(500);
  htm::Txn& victim = begin(1, true);
  victim.read_sig.add(500);
  victim.read_lines.insert(500);
  dyn_->commit_cost(committer);
  EXPECT_TRUE(victim.doomed);
  EXPECT_GE(dyn_->dyntm_stats().lazy_commit_dooms, 1u);
}

TEST_F(DynTmTest, CommitWaitsForEagerOwnersThenProceeds) {
  htm::Txn& committer = begin(0, true);
  committer.write_lines.insert(500);
  htm::Txn& eager = begin(1, false);
  eager.write_sig.add(500);
  eager.write_lines.insert(500);
  EXPECT_FALSE(dyn_->commit_ready(committer));
  // The wait is bounded: eventually the committer proceeds regardless.
  bool ready = false;
  for (int i = 0; i < 20 && !ready; ++i) ready = dyn_->commit_ready(committer);
  EXPECT_TRUE(ready);
}

TEST_F(DynTmTest, CommitReadyImmediateWithoutConflicts) {
  htm::Txn& committer = begin(0, true);
  committer.write_lines.insert(500);
  EXPECT_TRUE(dyn_->commit_ready(committer));
}

TEST_F(DynTmTest, EagerModeDelegatesToInner) {
  htm::Txn& t = begin(0, false);
  // FasTM inner: begin cost comes from the inner scheme.
  EXPECT_EQ(dyn_->commit_cost(t), FasTm::kFlashCommit);
}

TEST(DynTmSuvTest, LazyStoresAreRedirectedNotBuffered) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kDynTmSuv;
  mem::MemorySystem mem(cfg.mem);
  htm::HtmSystem htm(cfg, mem, sim::make_version_manager(cfg, mem));
  auto* dyn = dynamic_cast<DynTm*>(&htm.vm());
  ASSERT_NE(dyn, nullptr);
  EXPECT_STREQ(dyn->name(), "DynTM+SUV");
  htm::Txn& t = htm.txn(0);
  t.state = htm::TxnState::kRunning;
  t.lazy = true;
  auto act = dyn->on_tx_store(t, 0x1000);
  EXPECT_FALSE(act.buffered);  // physical redirection, invisible logically
  EXPECT_NE(line_of(act.target), line_of(0x1000));
}

TEST(DynTmSuvTest, LazyCommitIsFlashNotPerLine) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kDynTmSuv;
  mem::MemorySystem mem(cfg.mem);
  htm::HtmSystem htm(cfg, mem, sim::make_version_manager(cfg, mem));
  auto* dyn = dynamic_cast<DynTm*>(&htm.vm());
  htm::Txn& t = htm.txn(0);
  t.state = htm::TxnState::kRunning;
  t.lazy = true;
  for (int i = 0; i < 50; ++i) {
    dyn->on_tx_store(t, 0x1000 + 64 * i);
    t.write_lines.insert(line_of(0x1000 + 64 * i));
  }
  // Arbitration + flash: far below DynTM's 50-line publication.
  EXPECT_LT(dyn->commit_cost(t),
            DynTm::kArbitration + 50 * DynTm::kPublishPerLine);
}

}  // namespace
}  // namespace suvtm::vm
