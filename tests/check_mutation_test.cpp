// Negative tests for the structural auditors and the checker: every audit
// must be demonstrated to actually fire. Each test runs a small clean
// simulation, asserts the audits pass, injects one targeted corruption into
// a live structure, and requires the corresponding audit to report it.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "check/check.hpp"
#include "mem/cache.hpp"
#include "sim/simulator.hpp"
#include "stamp/framework.hpp"
#include "vm/suv_vm.hpp"

namespace suvtm::check {
namespace {

bool mentions(const std::vector<std::string>& violations,
              const std::string& needle) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const std::string& v) {
                       return v.find(needle) != std::string::npos;
                     });
}

sim::ThreadTask writer(sim::ThreadContext& tc) {
  co_await tc.tx_begin(1);
  co_await tc.store(0x100000, 1);
  co_await tc.store(0x110000, 2);
  co_await tc.tx_commit();
}

class MutationTest : public ::testing::Test {
 protected:
  MutationTest() : sim_(make_cfg()) {
    vm_ = dynamic_cast<vm::SuvVm*>(&sim_.htm().vm());
  }

  static sim::SimConfig make_cfg() {
    sim::SimConfig cfg;
    cfg.scheme = sim::Scheme::kSuv;
    // The audits are driven by hand after targeted corruption; the
    // simulator's own checker would (rightly) reject the mutations first.
    cfg.check.enabled = false;
    // Negative tests must never rely on a sampled audit window: a
    // corruption has to be caught at the first opportunity.
    cfg.check.audit_period = 1;
    return cfg;
  }

  /// Commit one transaction with two stores, leaving global redirect
  /// entries, pool allocations, cached lines and directory state behind.
  void run_writer() {
    sim_.spawn(0, writer(sim_.context(0)));
    sim_.run();
    ASSERT_TRUE(audit_all(sim_.mem(), sim_.htm(), vm_).empty())
        << "baseline must be clean before injecting corruption";
  }

  /// First Exclusive/Modified line in core 0's L1.
  LineAddr find_owned_line() {
    LineAddr line = 0;
    bool found = false;
    sim_.mem().l1(0).for_each([&](mem::Cache::Line& ln) {
      if (!found && (ln.state == mem::CohState::kModified ||
                     ln.state == mem::CohState::kExclusive)) {
        line = ln.tag;
        found = true;
      }
    });
    EXPECT_TRUE(found) << "writer must leave an owned line in core 0's L1";
    return line;
  }

  sim::Simulator sim_;
  vm::SuvVm* vm_ = nullptr;
};

TEST_F(MutationTest, BaselineAuditsAreClean) {
  run_writer();
  const auto v = audit_all(sim_.mem(), sim_.htm(), vm_);
  EXPECT_TRUE(v.empty()) << v.front();
}

TEST_F(MutationTest, DroppedGlobalSummaryMembershipIsCaught) {
  run_writer();
  const LineAddr line = line_of(0x100000);
  const suv::RedirectEntry* e = vm_->table().find(line);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->state, suv::EntryState::kGlobalRedirect);
  // A global entry diverts EVERY core; dropping one core's summary
  // membership would let that core read the stale original line.
  vm_->table().summary_mut(3).remove(line);
  EXPECT_TRUE(mentions(audit_suv(*vm_, sim_.htm()), "summary misses"));
}

TEST_F(MutationTest, DroppedTransientSummaryMembershipIsCaught) {
  htm::Txn& t = sim_.htm().txn(0);
  t.state = htm::TxnState::kRunning;
  vm_->on_tx_store(t, 0x200000);
  t.write_lines.insert(line_of(0x200000));
  t.write_sig.add(line_of(0x200000));
  ASSERT_TRUE(audit_suv(*vm_, sim_.htm()).empty());
  vm_->table().summary_mut(0).remove(line_of(0x200000));
  EXPECT_TRUE(mentions(audit_suv(*vm_, sim_.htm()),
                       "summary misses its transient redirect"));
}

TEST_F(MutationTest, StaleHolderMaskIsCaught) {
  run_writer();
  const LineAddr line = line_of(0x100000);
  ASSERT_NE(vm_->table().find(line), nullptr);
  ASSERT_NE(vm_->table().holders(line), 0u)
      << "the committed entry stays cached in its owner's first-level table";
  // A deletion clears only the tables in the mask: a dropped bit would
  // leave that core caching a dead entry.
  vm_->table().holders_mut(line) = 0;
  EXPECT_TRUE(mentions(audit_suv(*vm_, sim_.htm()), "holder mask"));
}

TEST_F(MutationTest, PoolRefcountImbalanceIsCaught) {
  run_writer();
  // A line handed out with no live entry targeting it is a leak.
  vm_->pool(0).allocate();
  EXPECT_TRUE(mentions(audit_suv(*vm_, sim_.htm()), "pool reports"));
}

TEST_F(MutationTest, DirectoryOwnerTamperIsCaught) {
  run_writer();
  const LineAddr line = find_owned_line();
  auto& e = sim_.mem().directory().entry(line);
  e.owner = kNoCore;
  e.sharers = 0;
  EXPECT_TRUE(mentions(audit_coherence(sim_.mem()), "coherence:"));
}

TEST_F(MutationTest, L1StateFlipIsCaught) {
  run_writer();
  const LineAddr line = find_owned_line();
  sim_.mem().l1(0).for_each([&](mem::Cache::Line& ln) {
    if (ln.tag == line) ln.state = mem::CohState::kShared;
  });
  EXPECT_TRUE(mentions(audit_coherence(sim_.mem()), "coherence:"));
}

TEST_F(MutationTest, SmBitWithoutListEntryIsCaught) {
  run_writer();
  bool done = false;
  sim_.mem().l1(0).for_each([&](mem::Cache::Line& ln) {
    if (!done) {
      ln.speculative = true;
      done = true;
    }
  });
  ASSERT_TRUE(done);
  EXPECT_TRUE(mentions(audit_coherence(sim_.mem()), "SM bit"));
}

TEST_F(MutationTest, SignatureGapIsCaught) {
  htm::Txn& t = sim_.htm().txn(0);
  t.state = htm::TxnState::kRunning;
  t.read_lines.insert(0x7777);  // exact set grows, signature does not
  EXPECT_TRUE(mentions(audit_signatures(sim_.htm()), "signature:"));
}

TEST_F(MutationTest, SuspendedSummaryGapIsCaught) {
  htm::Txn& t = sim_.htm().txn(0);
  t.state = htm::TxnState::kRunning;
  t.read_lines.insert(0x500);
  t.read_sig.add(0x500);
  ASSERT_TRUE(sim_.htm().suspend_txn(0));
  ASSERT_TRUE(audit_signatures(sim_.htm()).empty());
  // Corrupt the parked transaction's coverage: a line its signature missed
  // would also be missing from the rebuilt suspended summary, so model the
  // equivalent by growing the parked exact set. The summaries are rebuilt
  // only on suspend/resume, so the gap persists.
  sim_.htm().for_each_suspended([&](CoreId, const htm::Txn& s) {
    const_cast<htm::Txn&>(s).read_lines.insert(0x9999);
  });
  EXPECT_TRUE(mentions(audit_signatures(sim_.htm()),
                       "suspended read summary"));
}

// ---- parked-retry audit ------------------------------------------------------

sim::ThreadTask hold_line(sim::ThreadContext& tc, Addr a) {
  co_await tc.tx_begin(1);
  co_await tc.store(a, 7);
  co_await tc.compute(100000);
  co_await tc.tx_commit();
}

sim::ThreadTask read_line_later(sim::ThreadContext& tc, Addr a) {
  co_await tc.compute(200);
  co_await tc.tx_begin(2);
  (void)co_await tc.load(a);
  co_await tc.tx_commit();
}

/// Stopped mid-run with core 2's read of kLine parked on core 1's write,
/// while core 0 -- below the holder -- runs a transaction of its own.
class ParkedAuditTest : public MutationTest {
 protected:
  static constexpr Addr kLine = 0x200000;

  ParkedAuditTest() {
    sim_.spawn(0, hold_line(sim_.context(0), 0x300000));
    sim_.spawn(1, hold_line(sim_.context(1), kLine));
    sim_.spawn(2, read_line_later(sim_.context(2), kLine));
    EXPECT_FALSE(sim_.scheduler().run(3000)) << "the holders still run";
  }

  std::vector<std::string> audit() { return audit_parked(sim_.htm()); }
};

TEST_F(ParkedAuditTest, BaselineIsParkedAndClean) {
  const auto& cm = sim_.htm().conflicts();
  ASSERT_TRUE(cm.parked(2));
  EXPECT_EQ(cm.park_memo(2).holder, 1u);
  EXPECT_GT(sim_.scheduler().parked_wakes(), 0u);
  EXPECT_TRUE(audit().empty());
}

TEST_F(ParkedAuditTest, DroppedHolderReleaseTriggerIsCaught) {
  // The holder's transaction ends without the isolation release that
  // unparks its requesters.
  sim_.htm().txn(1).reset_committed();
  EXPECT_TRUE(mentions(audit(), "parked: core 2"));
  EXPECT_TRUE(mentions(audit_all(sim_.mem(), sim_.htm(), vm_), "parked:"));
}

TEST_F(ParkedAuditTest, DroppedWatchTriggerIsCaught) {
  // Core 0, below the holder, writes the parked line without the note (and
  // so without the watch-column probe) that unparks core 2.
  htm::Txn& t = sim_.htm().txn(0);
  t.write_sig.add(line_of(kLine));
  t.write_lines.insert(line_of(kLine));
  EXPECT_TRUE(mentions(audit(), "parked: core 2"));
}

// ---- end-to-end Checker negatives ------------------------------------------

TEST(CheckerEndToEndTest, HostWriteAfterSnapshotTripsTheSweep) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kLogTmSe;
  cfg.check.enabled = false;
  cfg.check.audit_period = 1;
  sim::Simulator sim(cfg);
  Checker ck(cfg, sim.mem(), sim.htm());
  ck.on_run_start();
  // A write no hook observed: the untouched-word sweep must refuse it.
  sim.mem().store_word(0x5000, 99);
  EXPECT_THROW(ck.finalize(), CheckFailure);
}

TEST(CheckerEndToEndTest, CleanOverrunAuditsAndReportsTheCap) {
  // A run stopped by the cycle cap never finalizes; the checker audits the
  // stopped machine instead, and a sound one reports only the cap.
  for (sim::Scheme scheme : sim::all_schemes()) {
    sim::SimConfig cfg;
    cfg.scheme = scheme;
    cfg.check.enabled = true;
    cfg.max_cycles = 20000;
    sim::Simulator sim(cfg);
    stamp::SuiteParams params;
    params.scale = 0.05;
    auto workload = stamp::make_workload(stamp::AppId::kBayes);
    workload->build(sim, params);
    try {
      sim.run();
      ADD_FAILURE() << sim::scheme_name(scheme) << ": the cap must stop it";
    } catch (const CheckFailure& e) {
      ADD_FAILURE() << sim::scheme_name(scheme) << ": " << e.what();
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("max_cycles"), std::string::npos);
    }
    EXPECT_GT(sim.checker()->audits_run(), 0u);
  }
}

TEST(CheckerEndToEndTest, CleanRunFinalizesWithoutThrowing) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kLogTmSe;
  cfg.check.enabled = false;
  sim::Simulator sim(cfg);
  sim.mem().store_word(0x5000, 99);  // before the snapshot: fine
  Checker ck(cfg, sim.mem(), sim.htm());
  ck.on_run_start();
  EXPECT_NO_THROW(ck.finalize());
  EXPECT_TRUE(ck.violations().empty());
}

TEST(CheckerGrantAuditTest, GrantIntoLiveWriteSetIsFlagged) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kLogTmSe;
  cfg.check.enabled = false;
  cfg.check.audit_period = 1;
  sim::Simulator sim(cfg);
  Checker ck(cfg, sim.mem(), sim.htm());
  htm::Txn& holder = sim.htm().txn(1);
  holder.state = htm::TxnState::kRunning;
  holder.write_lines.insert(0x50);
  holder.write_sig.add(0x50);
  // Register the holder's isolation as a live run would; the checker's
  // candidate filter initializes conservatively, so a directly driven
  // grant always reaches the full scan.
  sim.htm().conflicts().set_isolation(1, true);
  // The conflict manager should have NACKed this read; a grant that lands
  // in another transaction's exact write set means isolation broke.
  ck.on_access_granted(0, 0x50, /*exclusive=*/false, /*requester_lazy=*/false);
  EXPECT_FALSE(ck.violations().empty());
}

TEST(CheckerGrantAuditTest, ReadGrantAgainstReaderIsAllowed) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kLogTmSe;
  cfg.check.enabled = false;
  cfg.check.audit_period = 1;
  sim::Simulator sim(cfg);
  Checker ck(cfg, sim.mem(), sim.htm());
  htm::Txn& holder = sim.htm().txn(1);
  holder.state = htm::TxnState::kRunning;
  holder.read_lines.insert(0x50);
  holder.read_sig.add(0x50);
  // Force the full scan (isolation held): a shared grant against a mere
  // reader must still come back clean.
  sim.htm().conflicts().set_isolation(1, true);
  ck.on_access_granted(0, 0x50, /*exclusive=*/false, /*requester_lazy=*/false);
  EXPECT_TRUE(ck.violations().empty());
}

// ---- audit sampling --------------------------------------------------------

/// Drive one well-formed (empty) transaction through the checker's hooks.
void commit_once(Checker& ck, CoreId c, Cycle base) {
  ck.on_begin(c, base);
  ck.on_commit_start(c, base + 1);
  ck.on_commit_done(c, base + 2, /*lazy=*/false);
}

TEST(AuditSamplingTest, PeriodNCatchesPersistentCorruptionWithinNCommits) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kLogTmSe;
  cfg.check.enabled = false;
  cfg.check.audit_period = 4;
  sim::Simulator sim(cfg);
  Checker ck(cfg, sim.mem(), sim.htm());
  // Persistent corruption: an exact-set line the signature never admitted.
  // It stays wrong until something audits it.
  htm::Txn& t = sim.htm().txn(0);
  t.state = htm::TxnState::kRunning;
  t.read_lines.insert(0x7777);
  Cycle now = 10;
  // Commits 1..3 fall inside the sampled window: no audit runs.
  for (int i = 0; i < 3; ++i, now += 10) commit_once(ck, 1, now);
  EXPECT_EQ(ck.audits_run(), 0u);
  EXPECT_TRUE(ck.violations().empty());
  // Commit 4 crosses the period boundary: the audit must fire and catch it.
  commit_once(ck, 1, now);
  EXPECT_EQ(ck.audits_run(), 1u);
  EXPECT_TRUE(mentions(ck.violations(), "signature:"));
}

TEST(AuditSamplingTest, AbortAuditsFireRegardlessOfPeriod) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kLogTmSe;
  cfg.check.enabled = false;
  cfg.check.audit_period = 0;  // sampling off entirely
  sim::Simulator sim(cfg);
  Checker ck(cfg, sim.mem(), sim.htm());
  // The abort audit is scoped to the aborting attempt, so the corruption
  // must sit in the aborting core's own descriptor.
  htm::Txn& t = sim.htm().txn(1);
  t.state = htm::TxnState::kRunning;
  t.read_lines.insert(0x7777);
  ck.on_begin(1, 10);
  ck.on_abort_done(1);
  EXPECT_EQ(ck.audits_run(), 1u);
  EXPECT_TRUE(mentions(ck.violations(), "signature:"));
}

TEST(CheckerGrantAuditTest, GrantIntoSuspendedWriteSetIsFlagged) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kLogTmSe;
  cfg.check.enabled = false;
  cfg.check.audit_period = 1;
  sim::Simulator sim(cfg);
  Checker ck(cfg, sim.mem(), sim.htm());
  htm::Txn& t = sim.htm().txn(1);
  t.state = htm::TxnState::kRunning;
  t.write_lines.insert(0x60);
  t.write_sig.add(0x60);
  ASSERT_TRUE(sim.htm().suspend_txn(1));
  // Parked transactions keep isolation through the suspended summaries.
  ck.on_access_granted(0, 0x60, /*exclusive=*/true, /*requester_lazy=*/false);
  EXPECT_FALSE(ck.violations().empty());
}

}  // namespace
}  // namespace suvtm::check
