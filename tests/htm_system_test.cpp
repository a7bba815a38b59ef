#include <gtest/gtest.h>

#include <vector>

#include "htm/htm_system.hpp"
#include "sim/simulator.hpp"
#include "stamp/framework.hpp"

namespace suvtm::htm {
namespace {

class HtmSystemTest : public ::testing::Test {
 protected:
  HtmSystemTest() {
    cfg_.scheme = sim::Scheme::kLogTmSe;
    mem_ = std::make_unique<mem::MemorySystem>(cfg_.mem);
    htm_ = std::make_unique<HtmSystem>(cfg_, *mem_,
                                       sim::make_version_manager(cfg_, *mem_));
  }

  Txn& run_txn(CoreId c) {
    Txn& t = htm_->txn(c);
    t.state = TxnState::kRunning;
    htm_->conflicts().set_isolation(c, true);
    return t;
  }

  sim::SimConfig cfg_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<HtmSystem> htm_;
};

TEST_F(HtmSystemTest, DoomMarksRunningTxn) {
  Txn& t = run_txn(3);
  htm_->doom(3);
  EXPECT_TRUE(t.doomed);
}

TEST_F(HtmSystemTest, DoomIgnoresIdleAndCommitting) {
  htm_->doom(0);
  EXPECT_FALSE(htm_->txn(0).doomed);
  Txn& t = run_txn(1);
  t.state = TxnState::kCommitting;
  htm_->doom(1);
  EXPECT_FALSE(t.doomed);
}

TEST_F(HtmSystemTest, DoomUnparksTheVictim) {
  sim::Park park;
  htm_->conflicts().enable_parking(0, &park);
  Txn& holder = run_txn(1);
  holder.write_sig.add(100);
  holder.write_lines.insert(100);
  htm_->conflicts().note_write(1, 100);
  run_txn(0);
  htm_->conflicts().check(0, 100, false, false, htm_->txn_view());
  ASSERT_TRUE(park.parked());
  htm_->doom(1);  // another core's doom leaves the park alone
  EXPECT_TRUE(park.parked());
  htm_->doom(0);  // a doomed requester aborts at its next retry
  EXPECT_FALSE(park.parked());
}

TEST_F(HtmSystemTest, SuspendAndResumeUnpark) {
  sim::Park park;
  htm_->conflicts().enable_parking(0, &park);
  Txn& holder = run_txn(1);
  holder.write_sig.add(100);
  holder.write_lines.insert(100);
  htm_->conflicts().note_write(1, 100);
  run_txn(2);
  const auto park_on_holder = [&] {
    htm_->conflicts().check(0, 100, false, false, htm_->txn_view());
    return park.parked();
  };
  ASSERT_TRUE(park_on_holder());
  ASSERT_TRUE(htm_->suspend_txn(2));
  EXPECT_FALSE(park.parked());
  ASSERT_TRUE(park_on_holder());
  ASSERT_TRUE(htm_->resume_txn(2));
  EXPECT_FALSE(park.parked());
}

TEST_F(HtmSystemTest, CommitTokenIsExclusive) {
  EXPECT_TRUE(htm_->commit_token_free());
  EXPECT_TRUE(htm_->acquire_commit_token(2));
  EXPECT_FALSE(htm_->acquire_commit_token(3));
  EXPECT_TRUE(htm_->acquire_commit_token(2));  // reentrant for the holder
  htm_->release_commit_token(2);
  EXPECT_TRUE(htm_->acquire_commit_token(3));
  htm_->release_commit_token(3);
}

TEST_F(HtmSystemTest, SuspendRequiresRunningTxn) {
  EXPECT_FALSE(htm_->suspend_txn(0));
  run_txn(0);
  EXPECT_TRUE(htm_->suspend_txn(0));
  EXPECT_EQ(htm_->suspended_count(), 1u);
  // The core's descriptor is clean for the next scheduled thread.
  EXPECT_FALSE(htm_->txn(0).active());
}

TEST_F(HtmSystemTest, SuspendedSetsStillConflict) {
  Txn& t = run_txn(0);
  t.write_sig.add(100);
  t.write_lines.insert(100);
  ASSERT_TRUE(htm_->suspend_txn(0));
  // Another core's access to line 100 must stall on the summary.
  auto d = htm_->conflicts().check(1, 100, false, false, htm_->txn_view());
  EXPECT_EQ(d.action, ConflictManager::Action::kStall);
  EXPECT_GE(htm_->conflicts().stats().suspended_stalls, 1u);
}

TEST_F(HtmSystemTest, SuspendedReadsBlockWriters) {
  Txn& t = run_txn(0);
  t.read_sig.add(200);
  t.read_lines.insert(200);
  ASSERT_TRUE(htm_->suspend_txn(0));
  EXPECT_EQ(htm_->conflicts().check(1, 200, true, false, htm_->txn_view()).action,
            ConflictManager::Action::kStall);
  // Reads of a read-only suspended line are fine.
  EXPECT_EQ(htm_->conflicts().check(1, 200, false, false, htm_->txn_view()).action,
            ConflictManager::Action::kProceed);
}

TEST_F(HtmSystemTest, ResumeRestoresTheTransaction) {
  Txn& t = run_txn(0);
  t.write_sig.add(100);
  t.write_lines.insert(100);
  t.site = 42;
  ASSERT_TRUE(htm_->suspend_txn(0));
  ASSERT_TRUE(htm_->resume_txn(0));
  EXPECT_EQ(htm_->suspended_count(), 0u);
  EXPECT_EQ(htm_->txn(0).state, TxnState::kRunning);
  EXPECT_EQ(htm_->txn(0).site, 42u);
  EXPECT_TRUE(htm_->txn(0).write_sig.test(100));
  // The summary no longer NACKs once the transaction is live again
  // (conflicts now come from the live signature instead).
  auto d = htm_->conflicts().check(1, 100, true, false, htm_->txn_view());
  EXPECT_EQ(d.action, ConflictManager::Action::kStall);
  EXPECT_EQ(d.holder, 0u);
}

// A suspend/resume round trip leaves the conflict manager as it found it:
// with another transaction run and committed on the core in between, the
// resumed transaction's column bits and every other core's decisions read
// as before the suspend, and the resumed transaction's commit scrubs all
// of its column bits again.
TEST_F(HtmSystemTest, ResumeRoundTripRestoresColumnsAndDecisions) {
  ConflictManager& cm = htm_->conflicts();
  std::vector<LineAddr> lines;
  Txn& t = run_txn(0);
  for (LineAddr i = 0; i < 48; ++i) {
    lines.push_back(1000 + 7 * i);
    htm_->note_read(t, lines.back());
  }
  for (LineAddr i = 0; i < 24; ++i) {
    lines.push_back(5000 + 13 * i);
    htm_->note_write(t, lines.back());
  }
  htm_->note_write(t, 1000);  // read, then written: in both sets
  // A bystander on core 2 keeps bits of its own in the columns.
  Txn& bystander = run_txn(2);
  for (LineAddr l = 3000; l < 3032; ++l) htm_->note_write(bystander, l);

  struct Seen {
    std::uint64_t read_cols, write_cols;
    ConflictManager::Action read_action, write_action;
    CoreId read_holder, write_holder;
    bool operator==(const Seen&) const = default;
  };
  // Core 1 is idle: its probes stall at most and leave no wait-for edge.
  const auto observe = [&] {
    std::vector<Seen> seen;
    std::vector<LineAddr> probes = lines;
    for (LineAddr l = 0; l < 8192; l += 3) probes.push_back(l);
    for (LineAddr l : probes) {
      const auto r = cm.check(1, l, false, false, htm_->txn_view());
      const auto w = cm.check(1, l, true, false, htm_->txn_view());
      seen.push_back({cm.column_mask(l, false), cm.column_mask(l, true),
                      r.action, w.action, r.holder, w.holder});
    }
    return seen;
  };
  const std::vector<Seen> before = observe();

  ASSERT_TRUE(htm_->suspend_txn(0));
  Txn& other = run_txn(0);
  for (LineAddr l = 7000; l < 7040; ++l) htm_->note_read(other, l);
  htm_->note_write(other, 1000 + 7 * 5);
  other.reset_committed();
  cm.set_isolation(0, false);
  ASSERT_TRUE(htm_->resume_txn(0));
  const std::vector<Seen> after = observe();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(after[i] == before[i]) << "probe " << i;
  }

  htm_->txn(0).reset_committed();
  cm.set_isolation(0, false);
  for (LineAddr l : lines) {
    EXPECT_EQ(cm.column_mask(l, false) & 1u, 0u) << "read column, line " << l;
    EXPECT_EQ(cm.column_mask(l, true) & 1u, 0u) << "write column, line " << l;
  }
  EXPECT_NE(cm.column_mask(3000, true) & (1u << 2), 0u)
      << "the bystander's bits survive core 0's release";
}

TEST_F(HtmSystemTest, ResumeFailsWithoutSuspension) {
  EXPECT_FALSE(htm_->resume_txn(0));
  run_txn(0);
  EXPECT_FALSE(htm_->resume_txn(0));  // core busy
}

TEST_F(HtmSystemTest, MultipleSuspendedTxnsMergeInSummary) {
  Txn& a = run_txn(0);
  a.write_lines.insert(100);
  a.write_sig.add(100);
  ASSERT_TRUE(htm_->suspend_txn(0));
  Txn& b = run_txn(1);
  b.write_lines.insert(200);
  b.write_sig.add(200);
  ASSERT_TRUE(htm_->suspend_txn(1));
  EXPECT_EQ(htm_->conflicts().check(2, 100, true, false, htm_->txn_view()).action,
            ConflictManager::Action::kStall);
  EXPECT_EQ(htm_->conflicts().check(2, 200, true, false, htm_->txn_view()).action,
            ConflictManager::Action::kStall);
  // Resuming one rebuilds the summary: the other still blocks.
  ASSERT_TRUE(htm_->resume_txn(0));
  htm_->txn(0).reset_committed();  // it finishes
  EXPECT_EQ(htm_->conflicts().check(2, 100, true, false, htm_->txn_view()).action,
            ConflictManager::Action::kProceed);
  EXPECT_EQ(htm_->conflicts().check(2, 200, true, false, htm_->txn_view()).action,
            ConflictManager::Action::kStall);
}

// --- Requester-wins policy ---------------------------------------------------

class RequesterWinsTest : public ::testing::Test {
 protected:
  RequesterWinsTest() {
    cfg_.scheme = sim::Scheme::kSuv;
    cfg_.htm.conflict_policy = sim::ConflictPolicy::kRequesterWins;
    mem_ = std::make_unique<mem::MemorySystem>(cfg_.mem);
    htm_ = std::make_unique<HtmSystem>(cfg_, *mem_,
                                       sim::make_version_manager(cfg_, *mem_));
  }

  sim::SimConfig cfg_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<HtmSystem> htm_;
};

TEST_F(RequesterWinsTest, OlderRequesterDoomsHolder) {
  Txn& holder = htm_->txn(1);
  holder.state = TxnState::kRunning;
  htm_->conflicts().set_isolation(1, true);
  holder.timestamp = 200;  // younger
  holder.write_sig.add(100);
  htm_->conflicts().note_write(1, 100);
  holder.write_lines.insert(100);
  Txn& req = htm_->txn(0);
  req.state = TxnState::kRunning;
  htm_->conflicts().set_isolation(0, true);
  req.timestamp = 100;  // older: wins
  auto d = htm_->conflicts().check(0, 100, true, false, htm_->txn_view());
  EXPECT_EQ(d.victim, 1u);
  EXPECT_EQ(d.action, ConflictManager::Action::kStall);
  EXPECT_GE(htm_->conflicts().stats().requester_wins, 1u);
}

TEST_F(RequesterWinsTest, YoungerRequesterFallsBackToStall) {
  // Timestamp priority prevents mutual-doom livelock: a younger requester
  // cannot kill the holder and just stalls.
  Txn& holder = htm_->txn(1);
  holder.state = TxnState::kRunning;
  htm_->conflicts().set_isolation(1, true);
  holder.timestamp = 100;  // older
  holder.write_sig.add(100);
  htm_->conflicts().note_write(1, 100);
  holder.write_lines.insert(100);
  Txn& req = htm_->txn(0);
  req.state = TxnState::kRunning;
  htm_->conflicts().set_isolation(0, true);
  req.timestamp = 200;
  auto d = htm_->conflicts().check(0, 100, true, false, htm_->txn_view());
  EXPECT_NE(d.victim, 1u);
  EXPECT_EQ(d.action, ConflictManager::Action::kStall);
}

TEST_F(RequesterWinsTest, CommittingHolderIsSpared) {
  Txn& holder = htm_->txn(1);
  holder.state = TxnState::kCommitting;
  htm_->conflicts().set_isolation(1, true);
  holder.timestamp = 500;
  holder.write_sig.add(100);
  htm_->conflicts().note_write(1, 100);
  holder.write_lines.insert(100);
  Txn& req = htm_->txn(0);
  req.state = TxnState::kRunning;
  htm_->conflicts().set_isolation(0, true);
  req.timestamp = 99;
  auto d = htm_->conflicts().check(0, 100, true, false, htm_->txn_view());
  EXPECT_NE(d.victim, 1u);  // fell through to the stall policy
  EXPECT_EQ(d.action, ConflictManager::Action::kStall);
}

// End-to-end: the whole suite of semantics must hold under requester-wins.
sim::ThreadTask rw_incrementer(sim::ThreadContext& tc, Addr counter,
                               sim::Barrier& bar, int iters) {
  co_await tc.barrier(bar);
  for (int i = 0; i < iters; ++i) {
    co_await stamp::atomically(tc, 1,
                               [&](sim::ThreadContext& t) -> sim::Task<void> {
      const std::uint64_t v = co_await t.load(counter);
      co_await t.compute(5);
      co_await t.store(counter, v + 1);
    });
  }
  co_await tc.barrier(bar);
}

TEST(RequesterWinsIntegration, HotCounterStaysAtomic) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  cfg.htm.conflict_policy = sim::ConflictPolicy::kRequesterWins;
  sim::Simulator sim(cfg);
  const Addr counter = 0x10000;
  auto& bar = sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, rw_incrementer(sim.context(c), counter, bar, 30));
  }
  sim.run();
  EXPECT_EQ(sim.read_word_resolved(counter), 30u * sim.num_cores());
  EXPECT_GT(sim.htm().conflicts().stats().requester_wins, 0u);
}

}  // namespace
}  // namespace suvtm::htm
