#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "htm/conflict_manager.hpp"

namespace suvtm::htm {
namespace {

class ConflictManagerTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kCores = 4;

  ConflictManagerTest()
      : cm_(kCores, sim::ConflictPolicy::kRequesterStalls,
            /*sig_bits=*/2048, /*sig_hashes=*/2) {
    for (CoreId c = 0; c < kCores; ++c) {
      txns_.push_back(std::make_unique<Txn>(c, 2048, 2));
      view_.push_back(txns_.back().get());
    }
  }

  /// Start a txn on core `c` with the given read/write line sets.
  void start(CoreId c, std::initializer_list<LineAddr> reads,
             std::initializer_list<LineAddr> writes, bool lazy = false) {
    Txn& t = *txns_[c];
    t.state = TxnState::kRunning;
    cm_.set_isolation(c, true);
    t.timestamp = (static_cast<std::uint64_t>(++ts_) << 5) | c;
    t.lazy = lazy;
    for (LineAddr l : reads) {
      t.read_sig.add(l);
      cm_.note_read(c, l);
      t.read_lines.insert(l);
    }
    for (LineAddr l : writes) {
      t.write_sig.add(l);
      cm_.note_write(c, l);
      t.write_lines.insert(l);
    }
  }

  ConflictManager::Decision check(CoreId c, LineAddr l, bool w,
                                  bool lazy = false) {
    return cm_.check(c, l, w, lazy, view_);
  }

  ConflictManager cm_;
  std::vector<std::unique_ptr<Txn>> txns_;
  std::vector<Txn*> view_;
  int ts_ = 0;
};

TEST_F(ConflictManagerTest, NoTxnsNoConflict) {
  auto d = check(0, 100, true);
  EXPECT_EQ(d.action, ConflictManager::Action::kProceed);
}

TEST_F(ConflictManagerTest, ReadReadDoesNotConflict) {
  start(1, {100}, {});
  start(0, {}, {});
  auto d = check(0, 100, false);
  EXPECT_EQ(d.action, ConflictManager::Action::kProceed);
}

TEST_F(ConflictManagerTest, ReadConflictsWithWriter) {
  start(1, {}, {100});
  start(0, {}, {});
  auto d = check(0, 100, false);
  EXPECT_EQ(d.action, ConflictManager::Action::kStall);
  EXPECT_EQ(d.holder, 1u);
}

TEST_F(ConflictManagerTest, WriteConflictsWithReader) {
  start(1, {100}, {});
  start(0, {}, {});
  auto d = check(0, 100, true);
  EXPECT_EQ(d.action, ConflictManager::Action::kStall);
  EXPECT_EQ(d.holder, 1u);
}

TEST_F(ConflictManagerTest, WriteWriteConflicts) {
  start(1, {}, {100});
  start(0, {}, {});
  EXPECT_EQ(check(0, 100, true).action, ConflictManager::Action::kStall);
}

TEST_F(ConflictManagerTest, NonTransactionalRequesterStallsOnly) {
  start(1, {}, {100});
  // Core 0 has no active transaction: strong isolation still stalls it.
  auto d = check(0, 100, false);
  EXPECT_EQ(d.action, ConflictManager::Action::kStall);
  EXPECT_EQ(d.victim, kNoCore);
}

TEST_F(ConflictManagerTest, CommittingTxnStillHoldsIsolation) {
  start(1, {}, {100});
  txns_[1]->state = TxnState::kCommitting;
  start(0, {}, {});
  EXPECT_EQ(check(0, 100, false).action, ConflictManager::Action::kStall);
}

TEST_F(ConflictManagerTest, AbortingTxnStillHoldsIsolation) {
  start(1, {}, {100});
  txns_[1]->state = TxnState::kAborting;
  start(0, {}, {});
  // The repair pathology: the aborting holder still NACKs neighbours.
  EXPECT_EQ(check(0, 100, false).action, ConflictManager::Action::kStall);
}

TEST_F(ConflictManagerTest, TwoPartyCycleAbortsYoungest) {
  start(0, {100}, {});  // older (smaller timestamp)
  start(1, {200}, {});  // younger
  // Core 1 writes 100 -> stalls on core 0.
  auto d1 = check(1, 100, true);
  EXPECT_EQ(d1.action, ConflictManager::Action::kStall);
  // Core 0 writes 200 -> cycle; the younger core 1 must be the victim.
  auto d0 = check(0, 200, true);
  EXPECT_EQ(d0.victim, 1u);
  EXPECT_EQ(d0.action, ConflictManager::Action::kStall);  // 0 stalls on
  EXPECT_EQ(cm_.stats().deadlock_aborts, 1u);
}

TEST_F(ConflictManagerTest, TwoPartyCycleSelfVictimWhenYounger) {
  start(0, {100}, {});
  start(1, {200}, {});
  auto d0 = check(0, 200, true);  // 0 stalls on 1
  EXPECT_EQ(d0.action, ConflictManager::Action::kStall);
  // 1 writes 100 -> cycle; 1 is younger -> aborts itself.
  auto d1 = check(1, 100, true);
  EXPECT_EQ(d1.action, ConflictManager::Action::kAbortSelf);
  EXPECT_EQ(d1.victim, 1u);
}

TEST_F(ConflictManagerTest, ThreePartyCycleDetected) {
  start(0, {100}, {});
  start(1, {200}, {});
  start(2, {300}, {});
  EXPECT_EQ(check(1, 100, true).action, ConflictManager::Action::kStall);
  EXPECT_EQ(check(2, 200, true).action, ConflictManager::Action::kStall);
  // 0 writes 300: 0 -> 2 -> 1 -> 0 closes the cycle; victim is youngest (2).
  auto d = check(0, 300, true);
  EXPECT_EQ(d.victim, 2u);
}

TEST_F(ConflictManagerTest, ClearWaitBreaksStaleEdges) {
  start(0, {100}, {});
  start(1, {200}, {});
  check(1, 100, true);  // 1 -> 0
  cm_.clear_wait(1);
  // Now 0 writing 200 sees no cycle: just stalls.
  auto d = check(0, 200, true);
  EXPECT_EQ(d.action, ConflictManager::Action::kStall);
  EXPECT_EQ(d.victim, kNoCore);
}

TEST_F(ConflictManagerTest, ProceedClearsOwnWait) {
  start(0, {100}, {});
  start(1, {200}, {});
  check(1, 100, true);  // 1 waits on 0
  txns_[0]->reset_attempt();  // 0's txn ends
  auto d = check(1, 100, true);
  EXPECT_EQ(d.action, ConflictManager::Action::kProceed);
  // Fresh cycle check from 0 must not see a stale 1 -> 0 edge.
  start(0, {999}, {});
  EXPECT_EQ(check(0, 200, true).victim, kNoCore);
}

TEST_F(ConflictManagerTest, FalseConflictCounted) {
  start(1, {}, {100});
  start(0, {}, {});
  // Find a line that aliases 100 in the 2048-bit signature but is not in
  // the exact write set.
  LineAddr alias = 0;
  for (LineAddr cand = 101; cand < 2000000; ++cand) {
    if (txns_[1]->write_sig.test(cand)) {
      alias = cand;
      break;
    }
  }
  ASSERT_NE(alias, 0u);
  const auto before = cm_.stats().false_conflicts;
  auto d = check(0, alias, false);
  EXPECT_EQ(d.action, ConflictManager::Action::kStall);
  EXPECT_EQ(cm_.stats().false_conflicts, before + 1);
}

// --- DynTM mixed-mode matrix -------------------------------------------------

TEST_F(ConflictManagerTest, LazyHolderDoesNotNackReaders) {
  start(1, {}, {100}, /*lazy=*/true);
  start(0, {}, {});
  EXPECT_EQ(check(0, 100, false).action, ConflictManager::Action::kProceed);
}

TEST_F(ConflictManagerTest, LazyHolderNacksWriteWrite) {
  start(1, {}, {100}, /*lazy=*/true);
  start(0, {}, {});
  EXPECT_EQ(check(0, 100, true).action, ConflictManager::Action::kStall);
}

TEST_F(ConflictManagerTest, WriteInvalidatesLazyReaders) {
  start(1, {100}, {}, /*lazy=*/true);
  start(3, {100}, {}, /*lazy=*/true);
  start(0, {}, {});
  auto d = check(0, 100, true);
  EXPECT_EQ(d.action, ConflictManager::Action::kProceed);
  EXPECT_EQ(d.invalidated_lazy_readers, (1ull << 1) | (1ull << 3));
}

TEST_F(ConflictManagerTest, LazyRequesterIgnoresReaders) {
  start(1, {100}, {});  // eager reader
  start(0, {}, {}, /*lazy=*/true);
  EXPECT_EQ(check(0, 100, true, /*lazy=*/true).action,
            ConflictManager::Action::kProceed);
}

TEST_F(ConflictManagerTest, LazyRequesterStallsOnEagerWriter) {
  start(1, {}, {100});  // eager writer: in-place uncommitted data
  start(0, {}, {}, /*lazy=*/true);
  EXPECT_EQ(check(0, 100, false, /*lazy=*/true).action,
            ConflictManager::Action::kStall);
}

TEST_F(ConflictManagerTest, CommittingLazyHolderTreatedAsEager) {
  start(1, {}, {100}, /*lazy=*/true);
  txns_[1]->state = TxnState::kCommitting;
  start(0, {}, {});
  // During publication the lazy committer's write set must NACK readers.
  EXPECT_EQ(check(0, 100, false).action, ConflictManager::Action::kStall);
}

}  // namespace
}  // namespace suvtm::htm
