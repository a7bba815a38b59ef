// Abort unwinding: an aborted attempt resumes the transaction's root frame
// (the one that issued the outermost tx_begin) and destroys every nested
// coroutine frame in place; nothing after the aborting access runs. Covered
// under all five schemes, plus the guard that rejects operations issued
// while an abort is pending.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "check/check.hpp"
#include "sim/simulator.hpp"
#include "stamp/framework.hpp"

namespace suvtm {
namespace {

using sim::Scheme;
using sim::Task;
using sim::ThreadContext;

class AbortUnwindTest : public ::testing::TestWithParam<Scheme> {
 protected:
  AbortUnwindTest() : sim_(make_cfg(GetParam())) {}

  static sim::SimConfig make_cfg(Scheme s) {
    sim::SimConfig cfg;
    cfg.scheme = s;
    return cfg;
  }

  sim::Simulator sim_;
};

// (a) An abort raised three Task levels below the transaction body. Each
// level counts its frame's destruction (RAII) and its completions.
struct Probe {
  int attempts = 0;
  int destroyed[3] = {};
  int finished[3] = {};
};

struct CountDestroy {
  int* n;
  ~CountDestroy() { ++*n; }
};

Task<std::uint64_t> level3(ThreadContext& t, htm::HtmSystem& htm, Addr a,
                           Probe& p) {
  CountDestroy guard{&p.destroyed[2]};
  const std::uint64_t v = co_await t.load(a);
  if (p.attempts == 1) htm.doom(t.core());  // model an incoming conflict
  co_await t.store(a, v + 1);               // aborts on the first attempt
  ++p.finished[2];
  co_return v + 1;
}

Task<std::uint64_t> level2(ThreadContext& t, htm::HtmSystem& htm, Addr a,
                           Probe& p) {
  CountDestroy guard{&p.destroyed[1]};
  const std::uint64_t v = co_await level3(t, htm, a, p);
  ++p.finished[1];
  co_return v;
}

Task<void> level1(ThreadContext& t, htm::HtmSystem& htm, Addr a, Probe& p) {
  CountDestroy guard{&p.destroyed[0]};
  co_await level2(t, htm, a, p);
  ++p.finished[0];
}

sim::ThreadTask deep_abort(ThreadContext& tc, htm::HtmSystem& htm, Addr a,
                           Probe& p) {
  co_await stamp::atomically(tc, 1, [&](ThreadContext& t) -> Task<void> {
    ++p.attempts;
    // Every earlier attempt's frames are already gone, each exactly once.
    for (int n : p.destroyed) EXPECT_EQ(n, p.attempts - 1);
    co_await level1(t, htm, a, p);
  });
}

TEST_P(AbortUnwindTest, DeepAbortDestroysEachFrameOncePerAttempt) {
  const Addr a = 0x10000;
  Probe p;
  sim_.spawn(0, deep_abort(sim_.context(0), sim_.htm(), a, p));
  sim_.run();
  EXPECT_EQ(p.attempts, 2);
  for (int level = 0; level < 3; ++level) {
    EXPECT_EQ(p.destroyed[level], 2) << "level " << level + 1;
    EXPECT_EQ(p.finished[level], 1) << "level " << level + 1
                                    << " ran past the aborting access";
  }
  EXPECT_EQ(sim_.htm().stats().aborts, 1u);
  EXPECT_EQ(sim_.htm().stats().commits, 1u);
  EXPECT_EQ(sim_.read_word_resolved(a), 1u);
  EXPECT_FALSE(sim_.context(0).abort_pending());
}

// (b) Doomed after the body's last access: the abort fires at tx_commit,
// in the root frame itself, and the attempt retries.
sim::ThreadTask doomed_at_commit(ThreadContext& tc, htm::HtmSystem& htm,
                                 Addr a, int* attempts) {
  co_await stamp::atomically(tc, 2, [&](ThreadContext& t) -> Task<void> {
    ++*attempts;
    const std::uint64_t v = co_await t.load(a);
    co_await t.store(a, v + 1);
    if (*attempts == 1) htm.doom(t.core());
  });
}

TEST_P(AbortUnwindTest, DoomedBeforeCommitRetries) {
  const Addr a = 0x20000;
  int attempts = 0;
  sim_.spawn(0, doomed_at_commit(sim_.context(0), sim_.htm(), a, &attempts));
  sim_.run();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(sim_.htm().stats().aborts, 1u);
  EXPECT_EQ(sim_.htm().stats().commits, 1u);
  EXPECT_EQ(sim_.read_word_resolved(a), 1u);
}

// (c) tx_rollback_inner on a doomed transaction cannot roll back just the
// inner frame: it falls back to a full abort, which restarts the outer
// atomically() from a frame two levels up.
Task<void> inner_frame(ThreadContext& t, htm::HtmSystem& htm, Addr b,
                       int attempt, int* past_rollback) {
  co_await t.tx_begin(4);
  co_await t.store(b, 2);
  if (attempt == 1) {
    htm.doom(t.core());
    co_await t.tx_rollback_inner();  // doomed: full-abort fallback
    ++*past_rollback;
    co_return;
  }
  co_await t.tx_commit();  // closed-nested commit merges into the outer
}

sim::ThreadTask rollback_fallback(ThreadContext& tc, htm::HtmSystem& htm,
                                  Addr a, Addr b, int* attempts,
                                  int* past_rollback, int* outer_done) {
  co_await stamp::atomically(tc, 3, [&](ThreadContext& t) -> Task<void> {
    ++*attempts;
    co_await t.store(a, 1);
    co_await inner_frame(t, htm, b, *attempts, past_rollback);
    ++*outer_done;
  });
}

TEST_P(AbortUnwindTest, DoomedRollbackInnerRestartsOuter) {
  const Addr a = 0x30000, b = 0x30000 + kLineBytes;
  int attempts = 0, past_rollback = 0, outer_done = 0;
  sim_.spawn(0, rollback_fallback(sim_.context(0), sim_.htm(), a, b,
                                  &attempts, &past_rollback, &outer_done));
  sim_.run();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(past_rollback, 0);
  EXPECT_EQ(outer_done, 1);
  EXPECT_EQ(sim_.htm().stats().aborts, 1u);
  EXPECT_EQ(sim_.htm().stats().commits, 1u);
  EXPECT_EQ(sim_.read_word_resolved(a), 1u);
  EXPECT_EQ(sim_.read_word_resolved(b), 2u);
}

// A raw tx_begin root that ignores the abort: the Task it awaited returns a
// default value (its frame was unwound before co_return), and the root's
// next operation trips the pending-abort guard instead of running on
// non-transactionally.
Task<std::uint64_t> doomed_access(ThreadContext& t, htm::HtmSystem& htm,
                                  Addr a) {
  htm.doom(t.core());
  co_return co_await t.load(a);
}

sim::ThreadTask skips_take_abort(ThreadContext& tc, htm::HtmSystem& htm,
                                 Addr a, std::uint64_t* seen) {
  co_await tc.tx_begin(5);
  *seen = co_await doomed_access(tc, htm, a);
  co_await tc.store(a, 1);
}

TEST_P(AbortUnwindTest, OperationWhileAbortPendingThrows) {
  const Addr a = 0x40000;
  std::uint64_t seen = 99;
  sim_.spawn(3, skips_take_abort(sim_.context(3), sim_.htm(), a, &seen));
  try {
    sim_.run();
    ADD_FAILURE() << "run() completed without tripping the guard";
  } catch (const check::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("core 3"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(sim_.htm().stats().aborts, 1u);
  EXPECT_EQ(sim_.mem().load_word(a), 0u) << "the store ran after the abort";
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AbortUnwindTest,
                         ::testing::ValuesIn(sim::all_schemes()),
                         [](const auto& info) {
                           std::string n = sim::scheme_cli_name(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

}  // namespace
}  // namespace suvtm
