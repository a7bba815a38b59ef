#include <gtest/gtest.h>

#include "htm/txn.hpp"

namespace suvtm::htm {
namespace {

TEST(TxnTest, InitialState) {
  Txn t(3, 2048, 2);
  EXPECT_EQ(t.core, 3u);
  EXPECT_EQ(t.state, TxnState::kIdle);
  EXPECT_FALSE(t.active());
  EXPECT_TRUE(t.frames.empty());
}

TEST(TxnTest, ActiveStates) {
  Txn t(0, 2048, 2);
  for (TxnState s : {TxnState::kRunning, TxnState::kCommitting,
                     TxnState::kAborting}) {
    t.state = s;
    EXPECT_TRUE(t.active());
  }
}

TEST(TxnTest, ResetAttemptKeepsTimestamp) {
  Txn t(0, 2048, 2);
  t.state = TxnState::kRunning;
  t.timestamp = 1234;
  t.has_timestamp = true;
  t.attempts = 3;
  t.read_sig.add(1);
  t.write_sig.add(2);
  t.read_lines.insert(1);
  t.write_lines.insert(2);
  t.undo.emplace_back(8, 42);
  t.logged_words.insert(8);
  t.redo[16] = 7;
  t.doomed = true;
  t.degenerated = true;

  t.reset_attempt();
  EXPECT_EQ(t.state, TxnState::kIdle);
  EXPECT_TRUE(t.has_timestamp);      // progress guarantee
  EXPECT_EQ(t.timestamp, 1234u);
  EXPECT_EQ(t.attempts, 3u);         // attempt count persists for backoff
  EXPECT_TRUE(t.read_sig.empty());
  EXPECT_TRUE(t.write_sig.empty());
  EXPECT_TRUE(t.read_lines.empty());
  EXPECT_TRUE(t.undo.empty());
  EXPECT_TRUE(t.logged_words.empty());
  EXPECT_TRUE(t.redo.empty());
  EXPECT_FALSE(t.doomed);
  EXPECT_FALSE(t.degenerated);
}

TEST(TxnTest, ResetCommittedDropsTimestamp) {
  Txn t(0, 2048, 2);
  t.has_timestamp = true;
  t.attempts = 5;
  t.reset_committed();
  EXPECT_FALSE(t.has_timestamp);
  EXPECT_EQ(t.attempts, 0u);
}

TEST(TxnTest, NestFramesRecordMarks) {
  Txn t(0, 2048, 2);
  t.state = TxnState::kRunning;
  EXPECT_TRUE(t.frames.empty());  // outermost level: no frame
  // The default VersionManager::nest_mark is the undo-log length.
  t.undo.emplace_back(0, 0);
  t.frames.push_back({t.undo.size()});
  t.undo.emplace_back(8, 0);
  t.frames.push_back({t.undo.size()});
  EXPECT_EQ(t.frames.back().vm_mark, 2u);
  t.frames.pop_back();  // inner commit: merge into the parent frame
  EXPECT_EQ(t.frames.back().vm_mark, 1u);
  t.reset_attempt();
  EXPECT_TRUE(t.frames.empty());
}

TEST(TxnTest, StateNames) {
  EXPECT_STREQ(txn_state_name(TxnState::kIdle), "Idle");
  EXPECT_STREQ(txn_state_name(TxnState::kRunning), "Running");
  EXPECT_STREQ(txn_state_name(TxnState::kCommitting), "Committing");
  EXPECT_STREQ(txn_state_name(TxnState::kAborting), "Aborting");
}

}  // namespace
}  // namespace suvtm::htm
