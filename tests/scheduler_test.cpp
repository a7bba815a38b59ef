#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
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

TEST(SmallFnTest, InvokesInlineCallable) {
  int hits = 0;
  SmallFn f([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFnTest, MoveTransfersOwnership) {
  int hits = 0;
  SmallFn a([&hits] { ++hits; });
  SmallFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(hits, 1);
  SmallFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFnTest, HeapFallbackForLargeCaptures) {
  // Capture well past kInlineBytes to force the heap path.
  struct Fat {
    char pad[128] = {};
    int value = 7;
  } fat;
  int seen = 0;
  SmallFn f([fat, &seen] { seen = fat.value; });
  SmallFn g(std::move(f));
  g();
  EXPECT_EQ(seen, 7);
}

TEST(SmallFnTest, DestroysCaptureExactlyOnce) {
  struct Counter {
    int* dtors;
    explicit Counter(int* d) : dtors(d) {}
    Counter(const Counter& o) = default;
    Counter(Counter&& o) noexcept : dtors(o.dtors) { o.dtors = nullptr; }
    ~Counter() {
      if (dtors) ++*dtors;
    }
    void operator()() const {}
  };
  int dtors = 0;
  {
    SmallFn f{Counter(&dtors)};
    SmallFn g(std::move(f));
    g();
  }
  EXPECT_EQ(dtors, 1);
}

TEST(SmallFnTest, AcceptsCopyableStdFunction) {
  std::function<void()> fn;
  int hits = 0;
  fn = [&hits] { ++hits; };
  SmallFn a(fn);  // copied in; scheduler_test's chain pattern relies on this
  SmallFn b(fn);
  a();
  b();
  EXPECT_EQ(hits, 2);
}

}  // namespace
}  // namespace suvtm::sim
