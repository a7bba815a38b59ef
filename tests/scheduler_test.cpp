#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"

namespace suvtm::sim {
namespace {

TEST(SchedulerTest, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, RunsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(30, [&] { order.push_back(3); });
  s.at(10, [&] { order.push_back(1); });
  s.at(20, [&] { order.push_back(2); });
  EXPECT_TRUE(s.run(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(SchedulerTest, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.at(7, [&order, i] { order.push_back(i); });
  }
  s.run(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, AfterIsRelative) {
  Scheduler s;
  Cycle seen = 0;
  s.at(40, [&] { s.after(5, [&] { seen = s.now(); }); });
  s.run(100);
  EXPECT_EQ(seen, 45u);
}

TEST(SchedulerTest, EventsCanScheduleEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) s.after(1, chain);
  };
  s.at(0, chain);
  s.run(100);
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(s.now(), 9u);
}

TEST(SchedulerTest, RunStopsAtLimit) {
  Scheduler s;
  bool ran = false;
  s.at(1000, [&] { ran = true; });
  EXPECT_FALSE(s.run(500));
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pending(), 1u);
  // A later run with a higher limit drains it.
  EXPECT_TRUE(s.run(2000));
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, CountsEvents) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.at(i, [] {});
  s.run(100);
  EXPECT_EQ(s.events_processed(), 7u);
}

TEST(SchedulerTest, ZeroDelayAfterRunsAtSameCycle) {
  Scheduler s;
  Cycle when = 999;
  s.at(5, [&] { s.after(0, [&] { when = s.now(); }); });
  s.run(100);
  EXPECT_EQ(when, 5u);
}

TEST(SchedulerTest, HeapOrdersLargeRandomishSchedule) {
  // Exercise the hand-rolled heap well past trivial sizes: adversarial
  // interleaving of pushes and pops with duplicate timestamps.
  Scheduler s;
  std::vector<Cycle> fired;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;  // deterministic LCG-ish stream
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const Cycle t = (x >> 33) % 512;
    s.at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  EXPECT_TRUE(s.run(1000));
  ASSERT_EQ(fired.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(s.events_processed(), 1000u);
}

/// A wake record that logs its firings, and throws on the `throw_on`-th.
struct LoggingWake final : Wakeable {
  std::vector<int>* order;
  int id;
  int fired = 0;
  int throw_on = -1;
  LoggingWake(std::vector<int>* o, int i) : order(o), id(i) {}
  void on_wake() override {
    if (fired++ == throw_on) throw std::runtime_error("wake failed");
    order->push_back(id);
  }
};

TEST(SchedulerTest, WakeEventsShareTheTimeAndInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  LoggingWake a(&order, 1);
  LoggingWake b(&order, 3);
  s.wake_at(5, a);
  s.at(5, [&] { order.push_back(2); });
  s.wake_at(5, b);
  s.wake_at(3, b);
  s.wake_after(Scheduler::kWheelSize * 3, a);  // via the overflow heap
  EXPECT_TRUE(s.run(~Cycle{0}));
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2, 3, 1}));
  EXPECT_EQ(s.events_processed(), 5u);
}

TEST(SchedulerTest, WakeExceptionsPropagateOutOfRun) {
  Scheduler s;
  std::vector<int> order;
  LoggingWake w(&order, 7);
  w.throw_on = 1;
  s.wake_at(1, w);
  s.wake_at(2, w);
  s.wake_at(3, w);
  EXPECT_THROW(s.run(100), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{7}));
  EXPECT_EQ(s.now(), 2u);
}

/// A NACK-retry stand-in: each real wake logs and re-arms `interval`
/// cycles later until `left` real wakes are done. In `silent` mode a wake
/// only re-arms -- what a parked wake's virtual dispatch must be
/// equivalent to.
struct RetryWake final : Wakeable {
  Scheduler& s;
  std::vector<std::pair<char, Cycle>>* log;
  int left;
  bool silent = false;
  int silent_wakes = 0;
  RetryWake(Scheduler& sc, std::vector<std::pair<char, Cycle>>* l, Cycle iv,
            int n)
      : s(sc), log(l), left(n) {
    s.set_park_interval(iv);
  }
  void on_wake() override {
    if (silent) {
      ++silent_wakes;
    } else {
      log->push_back({'R', s.now()});
      if (--left == 0) return;
    }
    s.wake_after(s.park_interval(), *this);
  }
};

struct RetryRun {
  std::vector<std::pair<char, Cycle>> log;
  std::uint64_t events = 0;
  std::uint64_t quiet = 0;  // skipped (parked) or silent wakes
};

/// R retries every 20 cycles from cycle 10, between two tickers that hit
/// the same cycles: A (scheduled before R, so it runs first in each cycle)
/// and B (after R). The tickers park R (or silence it, for the reference)
/// and unpark it at fixed ticks, from either side of R within the cycle,
/// and the run spans several wheel windows, so R's re-links spill into the
/// overflow heap at every window edge.
RetryRun run_retry_scenario(bool use_park) {
  RetryRun out;
  Scheduler s;
  RetryWake r(s, &out.log, 20, 100);
  const auto set_quiet = [&](bool q) {
    if (!use_park) r.silent = q;
    else if (q) r.park.park();
    else r.park.unpark();
  };
  std::function<void(char, int)> tick = [&](char id, int k) {
    out.log.push_back({id, s.now()});
    // A acts before R's wake in the same cycle, B after it.
    if (id == 'A' && k == 3) set_quiet(true);     // parks this very cycle
    if (id == 'A' && k == 150) set_quiet(false);  // R runs for real now
    if (id == 'B' && k == 200) set_quiet(true);   // from the next cycle on
    if (id == 'B' && k == 260) set_quiet(false);  // next occurrence runs
    if (k < 400) s.after(20, [&tick, id, k] { tick(id, k + 1); });
  };
  s.at(10, [&] { tick('A', 0); });
  s.wake_at(10, r);
  s.at(10, [&] { tick('B', 0); });
  EXPECT_TRUE(s.run(~Cycle{0}));
  out.events = s.events_processed();
  out.quiet = use_park ? r.park.skipped() : r.silent_wakes;
  if (use_park) {
    EXPECT_EQ(s.parked_wakes(), r.park.skipped());
  }
  return out;
}

TEST(SchedulerParkTest, ParkedWakeKeepsItsOrderAcrossWindowEdges) {
  const RetryRun ref = run_retry_scenario(false);
  const RetryRun parked = run_retry_scenario(true);
  // 147 + 60 quiet wakes: ticks 3..149 and 201..260 (R's tick-260 wake
  // comes before B's unpark in that cycle).
  EXPECT_EQ(ref.quiet, 207u);
  EXPECT_EQ(parked.quiet, ref.quiet);
  EXPECT_EQ(parked.events, ref.events);
  EXPECT_EQ(parked.log, ref.log);
  // Spot-check the unparks: A's at tick 150 lets R run in that same cycle,
  // between A and B; B's at tick 260 lets R run at its next occurrence.
  const Cycle t150 = 10 + 20 * 150;
  const Cycle t261 = 10 + 20 * 261;
  const auto at = [&](Cycle t) {
    std::string ids;
    for (const auto& [id, c] : parked.log) {
      if (c == t) ids += id;
    }
    return ids;
  };
  EXPECT_EQ(at(t150 - 20), "AB");
  EXPECT_EQ(at(t150), "ARB");
  EXPECT_EQ(at(t261 - 20), "AB");
  EXPECT_EQ(at(t261), "ARB");
  EXPECT_GT(t261, 2 * Scheduler::kWheelSize) << "must span window edges";
}

TEST(SchedulerParkTest, ParkedWakeSpillsThroughTheOverflowHeap) {
  // A park interval beyond the wheel: the unparked wake returns to its
  // slot through the overflow heap, and the re-bucketed wake still runs
  // after the event that shares its cycle and was scheduled before the
  // skipped wake re-armed.
  Scheduler s;
  std::vector<std::pair<char, Cycle>> log;
  const Cycle far = Scheduler::kWheelSize + 5;
  RetryWake r(s, &log, far, 2);
  s.wake_at(1, r);
  r.park.park();
  s.at(1 + far, [&] {  // scheduled before the re-link: runs first
    log.push_back({'X', s.now()});
    r.park.unpark();
  });
  EXPECT_TRUE(s.run(~Cycle{0}));
  EXPECT_EQ(r.park.skipped(), 1u);
  EXPECT_EQ(log, (std::vector<std::pair<char, Cycle>>{
                     {'X', 1 + far}, {'R', 1 + far}, {'R', 1 + 2 * far}}));
  EXPECT_EQ(s.events_processed(), 4u);
}

/// A move-only callable that counts its runs and the destruction of its
/// live copy (a moved-from copy counts nothing).
class Tally {
 public:
  Tally(int* runs, int* dtors) : runs_(runs), dtors_(dtors) {}
  Tally(Tally&& o) noexcept
      : runs_(o.runs_), dtors_(std::exchange(o.dtors_, nullptr)) {}
  Tally& operator=(Tally&&) = delete;
  ~Tally() {
    if (dtors_ != nullptr) ++*dtors_;
  }
  void operator()() { ++*runs_; }

 private:
  int* runs_;
  int* dtors_;
};
static_assert(!std::is_copy_constructible_v<Tally>);

TEST(SchedulerCallbackTest, PendingCallbacksDieWithTheirScheduler) {
  int runs = 0;
  int dtors = 0;
  {
    Scheduler s;
    s.at(10, Tally(&runs, &dtors));
    s.at(1000, Tally(&runs, &dtors));
    s.at(Scheduler::kWheelSize * 3, Tally(&runs, &dtors));  // overflow heap
    EXPECT_FALSE(s.run(500));
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(dtors, 1);
    EXPECT_EQ(s.pending(), 2u);
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(dtors, 3);  // each capture exactly once
}

TEST(SchedulerCallbackTest, MoveOnlyCallableRuns) {
  Scheduler s;
  int runs = 0;
  int dtors = 0;
  s.at(5, Tally(&runs, &dtors));
  s.after(5, [u = std::make_unique<int>(7), &runs] { runs += *u; });
  EXPECT_TRUE(s.run(100));
  EXPECT_EQ(runs, 8);
  EXPECT_EQ(dtors, 1);
  EXPECT_EQ(s.callbacks(), 2u);
}

TEST(SchedulerCallbackTest, ThrowingCallbackPropagatesAndLeaksNothing) {
  int runs = 0;
  int dtors = 0;
  {
    Scheduler s;
    s.at(1, [t = Tally(&runs, &dtors)]() mutable {
      t();
      throw std::runtime_error("callback failed");
    });
    s.at(2, Tally(&runs, &dtors));
    EXPECT_THROW(s.run(100), std::runtime_error);
    EXPECT_EQ(s.now(), 1u);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(dtors, 1);  // the thrower's capture died while unwinding
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(dtors, 2);
}

TEST(SchedulerCallbackTest, CopiedStdFunctionRuns) {
  Scheduler s;
  int hits = 0;
  const std::function<void()> fn = [&hits] { ++hits; };
  s.at(1, fn);  // copied in, as the self-rescheduling chains above are
  s.after(2, fn);
  EXPECT_TRUE(s.run(100));
  EXPECT_EQ(hits, 2);
  EXPECT_TRUE(static_cast<bool>(fn));
}

}  // namespace
}  // namespace suvtm::sim
