#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "htm/conflict_manager.hpp"
#include "sim/scheduler.hpp"

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

// --- parked retries ------------------------------------------------------------

/// Every core registers a park slot, as each ThreadContext does.
class ParkTest : public ConflictManagerTest {
 protected:
  ParkTest() {
    for (CoreId c = 0; c < kCores; ++c) cm_.enable_parking(c, &parks_[c]);
  }

  /// Add `l` to running core `c`'s write (or read) set, the way
  /// ThreadContext grows a live transaction.
  void note(CoreId c, LineAddr l, bool write) {
    Txn& t = *txns_[c];
    if (write) {
      t.write_sig.add(l);
      t.write_lines.insert(l);
      cm_.note_write(c, l);
    } else {
      t.read_sig.add(l);
      t.read_lines.insert(l);
      cm_.note_read(c, l);
    }
  }

  /// A line that shares no signature filter bit with `l`.
  static LineAddr disjoint_from(LineAddr l) {
    Signature a(2048, 2);
    a.add(l);
    for (LineAddr cand = l + 1;; ++cand) {
      Signature b(2048, 2);
      b.add(cand);
      if (!a.intersects(b)) return cand;
    }
  }

  /// A line other than `l` that tests positive in a signature holding `l`.
  static LineAddr alias_of(LineAddr l) {
    Signature a(2048, 2);
    a.add(l);
    for (LineAddr cand = l + 1;; ++cand) {
      if (a.test(cand)) return cand;
    }
  }

  bool parked(CoreId c) const {
    EXPECT_EQ(cm_.parked(c), parks_[c].parked());
    return parks_[c].parked();
  }

  sim::Park parks_[kCores];
};

TEST_F(ParkTest, PlainStallParksWithItsInputs) {
  start(1, {}, {100});
  start(0, {}, {});
  ASSERT_EQ(check(0, 100, false).action, ConflictManager::Action::kStall);
  ASSERT_TRUE(parked(0));
  const ConflictManager::ParkMemo& m = cm_.park_memo(0);
  EXPECT_EQ(m.line, 100u);
  EXPECT_EQ(m.holder, 1u);
  EXPECT_FALSE(m.is_write);
  EXPECT_TRUE(m.requester_tx);
  EXPECT_TRUE(m.exact);
  EXPECT_TRUE(cm_.park_holds(0, view_));
  // A non-transactional requester parks too; it holds no wait-for edge.
  ASSERT_EQ(check(2, 100, true).action, ConflictManager::Action::kStall);
  EXPECT_TRUE(parked(2));
  EXPECT_FALSE(cm_.park_memo(2).requester_tx);
}

TEST_F(ConflictManagerTest, UnregisteredCoresNeverPark) {
  start(1, {}, {100});
  start(0, {}, {});
  EXPECT_EQ(check(0, 100, false).action, ConflictManager::Action::kStall);
  EXPECT_EQ(cm_.parked_mask(), 0u);
}

TEST_F(ParkTest, OnlyPlainStallsPark) {
  // A deadlock victim's requester does not park; the self-abort neither.
  start(2, {200}, {});
  start(3, {300}, {});
  EXPECT_EQ(check(2, 300, true).action, ConflictManager::Action::kStall);
  EXPECT_TRUE(parked(2));
  cm_.unpark(2);
  auto d = check(3, 200, true);  // closes 3 -> 2 -> 3; 3 is younger
  EXPECT_EQ(d.action, ConflictManager::Action::kAbortSelf);
  EXPECT_FALSE(parked(3));
  // A suspended-summary stall does not park either.
  Signature summary(2048, 2);
  summary.add(500);
  cm_.set_suspended_summary(nullptr, &summary);
  EXPECT_EQ(check(0, 500, false).action, ConflictManager::Action::kStall);
  EXPECT_FALSE(parked(0));
}

TEST_F(ParkTest, RequesterWinsDoomDoesNotPark) {
  ConflictManager cm(kCores, sim::ConflictPolicy::kRequesterWins, 2048, 2);
  sim::Park park;
  cm.enable_parking(0, &park);
  start(0, {}, {});  // older
  start(1, {}, {100});
  for (CoreId c : {0u, 1u}) {
    cm.set_isolation(c, true);
    cm.resync(c, *txns_[c]);
  }
  auto d = cm.check(0, 100, false, false, view_);
  EXPECT_EQ(d.victim, 1u);
  EXPECT_FALSE(park.parked());
  // The younger requester falls back to a plain stall, which parks.
  sim::Park young;
  cm.enable_parking(2, &young);
  start(2, {}, {});
  cm.set_isolation(2, true);
  EXPECT_EQ(cm.check(2, 100, false, false, view_).victim, kNoCore);
  EXPECT_TRUE(young.parked());
}

TEST_F(ParkTest, SettleCountsTheSkippedChecks) {
  start(1, {}, {100});
  start(0, {}, {});
  check(0, alias_of(100), false);  // false conflict
  ASSERT_TRUE(parked(0));
  const ConflictStats before = cm_.stats();
  cm_.settle_parked(0, 5);
  EXPECT_EQ(cm_.stats().conflicts, before.conflicts + 5);
  EXPECT_EQ(cm_.stats().false_conflicts, before.false_conflicts + 5);
}

// One test per trigger.

TEST_F(ParkTest, CoreBelowHolderNotingAnOverlappingLineUnparks) {
  start(3, {}, {100});
  start(1, {}, {});
  start(2, {}, {});
  check(2, 100, false);
  ASSERT_TRUE(parked(2));
  note(1, disjoint_from(100), true);  // shares no filter bit
  EXPECT_TRUE(parked(2));
  note(1, 100, true);
  EXPECT_FALSE(parked(2));
  EXPECT_EQ(check(2, 100, false).holder, 1u) << "core 1 is the holder now";
}

TEST_F(ParkTest, ReadNotesBelowHolderUnparkOnlyEagerWriters) {
  start(3, {100}, {100});
  start(1, {}, {});
  start(2, {}, {});
  start(0, {}, {});
  check(2, 100, false);  // a read: only write signatures can NACK it
  check(0, 100, true);   // a write: read signatures NACK it too
  ASSERT_TRUE(parked(2));
  ASSERT_TRUE(parked(0));
  note(1, 100, false);
  EXPECT_TRUE(parked(2));
  EXPECT_FALSE(parked(0));
}

TEST_F(ParkTest, CoreAboveHolderNeverUnparks) {
  start(1, {}, {100});
  start(0, {}, {});
  start(3, {}, {});
  check(0, 100, false);
  note(3, 100, true);
  EXPECT_TRUE(parked(0));
  EXPECT_TRUE(cm_.park_holds(0, view_));
}

TEST_F(ParkTest, HolderNotingTheParkedLineUnparksAFalseNack) {
  start(1, {alias_of(100)}, {});
  start(0, {}, {});
  check(0, 100, true);  // the alias in 1's read signature NACKs the write
  ASSERT_TRUE(parked(0));
  ASSERT_FALSE(cm_.park_memo(0).exact);
  note(1, alias_of(100) + 1000003, false);  // unrelated holder growth
  note(1, 100, false);
  EXPECT_FALSE(parked(0));
  check(0, 100, true);
  EXPECT_TRUE(cm_.park_memo(0).exact);
  // An exact NACK cannot flip back: the holder's sets only grow.
  note(1, 100, true);
  EXPECT_TRUE(parked(0));
}

TEST_F(ParkTest, HolderReleaseUnparks) {
  start(1, {}, {100});
  start(3, {}, {});
  start(0, {}, {});
  check(0, 100, false);
  txns_[3]->reset_committed();
  cm_.set_isolation(3, false);  // not the holder
  EXPECT_TRUE(parked(0));
  txns_[1]->reset_committed();
  cm_.set_isolation(1, false);
  EXPECT_FALSE(parked(0));
  EXPECT_EQ(check(0, 100, false).action, ConflictManager::Action::kProceed);
}

TEST_F(ParkTest, LazyTxnAtOrBelowHolderLeavingRunningUnparks) {
  start(1, {100}, {}, /*lazy=*/true);  // a lazy reader: invalidated, not NACKing
  start(2, {}, {100}, /*lazy=*/true);  // the lazy writer NACKs the write
  start(3, {}, {}, /*lazy=*/true);
  start(0, {}, {});
  check(0, 100, true);
  ASSERT_TRUE(parked(0));
  ASSERT_EQ(cm_.park_memo(0).holder, 2u);
  txns_[3]->state = TxnState::kCommitting;  // above the holder
  cm_.left_running(*txns_[3]);
  EXPECT_TRUE(parked(0));
  txns_[1]->state = TxnState::kCommitting;  // below: now a publishing reader
  cm_.left_running(*txns_[1]);
  EXPECT_FALSE(parked(0));
  EXPECT_EQ(check(0, 100, true).holder, 1u);
  ASSERT_TRUE(parked(0));
  txns_[1]->state = TxnState::kAborting;  // no longer lazy-running: no-op
  txns_[1]->lazy = false;
  cm_.left_running(*txns_[1]);
  EXPECT_TRUE(parked(0));
}

TEST_F(ParkTest, LazyHolderLeavingRunningUnparks) {
  start(1, {}, {100}, /*lazy=*/true);
  start(0, {}, {});
  check(0, 100, true);
  ASSERT_TRUE(parked(0));
  txns_[1]->state = TxnState::kCommitting;
  cm_.left_running(*txns_[1]);
  EXPECT_FALSE(parked(0));
}

TEST_F(ParkTest, ResyncAndSuspendedSummaryChangesUnpark) {
  start(1, {}, {100});
  start(0, {}, {});
  check(0, 100, false);
  ASSERT_TRUE(parked(0));
  cm_.resync(3, *txns_[3]);
  EXPECT_FALSE(parked(0));
  check(0, 100, false);
  ASSERT_TRUE(parked(0));
  Signature summary(2048, 2);
  cm_.set_suspended_summary(&summary, &summary);
  EXPECT_FALSE(parked(0));
}

TEST_F(ParkTest, UnparkDropsTheWatch) {
  start(2, {}, {100});
  start(1, {}, {});
  start(0, {}, {});
  check(0, 100, false);
  cm_.unpark(0);
  EXPECT_FALSE(parked(0));
  EXPECT_FALSE(cm_.park_memo(0).holder == kNoCore) << "the memo outlives it";
  note(1, 100, true);  // no stale watch bit left behind to trip on
  EXPECT_EQ(cm_.parked_mask(), 0u);
}

// Negative cases: changes that cannot alter a parked decision.

TEST_F(ParkTest, BeginBelowHolderDoesNotUnpark) {
  start(2, {}, {100});
  start(0, {}, {});
  check(0, 100, false);
  start(1, {}, {});  // isolation acquired with empty signatures
  EXPECT_TRUE(parked(0));
  EXPECT_TRUE(cm_.park_holds(0, view_));
}

TEST_F(ParkTest, NonLazyCommitAndAbortStartDoNotUnpark) {
  start(1, {}, {100});
  start(2, {}, {});
  start(0, {}, {});
  check(0, 100, false);
  txns_[1]->state = TxnState::kCommitting;
  cm_.left_running(*txns_[1]);
  txns_[2]->state = TxnState::kAborting;
  cm_.left_running(*txns_[2]);
  EXPECT_TRUE(parked(0));
  EXPECT_TRUE(cm_.park_holds(0, view_));
}

TEST_F(ParkTest, DeadlockVictimElsewhereDoesNotUnpark) {
  start(1, {}, {100});
  start(2, {200}, {});
  start(3, {300}, {});
  start(0, {}, {});
  check(0, 100, false);
  ASSERT_TRUE(parked(0));
  EXPECT_EQ(check(2, 300, true).action, ConflictManager::Action::kStall);
  auto d = check(3, 200, true);  // closes 3 -> 2 -> 3
  EXPECT_NE(d.victim, kNoCore);
  EXPECT_TRUE(parked(0));
  EXPECT_TRUE(cm_.park_holds(0, view_));
}

TEST_F(ParkTest, ParkHoldsDetectsAMissedTrigger) {
  start(1, {}, {100});
  start(0, {}, {});
  check(0, 100, false);
  ASSERT_TRUE(cm_.park_holds(0, view_));
  txns_[1]->reset_committed();  // released behind the manager's back
  EXPECT_FALSE(cm_.park_holds(0, view_));
}

}  // namespace
}  // namespace suvtm::htm
