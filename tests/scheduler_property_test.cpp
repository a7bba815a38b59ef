// Randomized property tests for the calendar-queue scheduler: the dispatch
// order of sim::Scheduler must be bit-identical to a reference model built
// on std::multimap (whose iteration order IS the (cycle, insertion) contract
// -- equivalent keys preserve insertion order). The workload is adversarial
// on purpose: same-cycle tie storms, delays past the wheel window (overflow
// heap + re-bucketing on the window jump), events scheduling events, and
// interleaved run(limit) segments with injections between them.
//
// A second, differential suite drives parked Wakeables through the
// scheduler's lanes against a reference that re-arms every parked wake by
// hand, one interval at a time -- the semantics the lanes must reproduce.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "sim/scheduler.hpp"

namespace suvtm::sim {
namespace {

/// Reference scheduler: one ordered multimap, one event popped at a time.
/// Deliberately naive -- its correctness is obvious from the container's
/// guarantees, which is the whole point of a model-based test.
class ReferenceScheduler {
 public:
  Cycle now() const { return now_; }

  void at(Cycle t, std::function<void()> fn) { q_.emplace(t, std::move(fn)); }

  void after(Cycle delay, std::function<void()> fn) {
    at(now_ + delay, std::move(fn));
  }

  bool run(Cycle limit) {
    while (!q_.empty()) {
      const auto it = q_.begin();
      if (it->first > limit) return false;
      now_ = it->first;
      std::function<void()> fn = std::move(it->second);
      q_.erase(it);
      fn();
    }
    return true;
  }

 private:
  Cycle now_ = 0;
  std::multimap<Cycle, std::function<void()>> q_;
};

using Trace = std::vector<std::pair<Cycle, int>>;

/// Self-rescheduling handler whose RNG stream decides the next delay:
/// 1-in-8 a same-cycle tie (after(0)), 1-in-8 a jump past the wheel window
/// (overflow heap), otherwise a short in-window delay; 1-in-16 it also
/// fans out a sibling at the same cycle. Identical seeds produce identical
/// decision streams in both schedulers, so the traces must match exactly.
template <class Sched>
struct Chain {
  Sched* s;
  Trace* trace;
  std::uint64_t* budget;
  std::uint64_t x;
  int id;

  void operator()() {
    trace->emplace_back(s->now(), id);
    if (*budget == 0) return;
    --*budget;
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = x >> 40;
    Cycle delay;
    switch (r % 8) {
      case 0:
        delay = 0;  // same-cycle: lands in the bucket being drained
        break;
      case 1:
        // Past the wheel window (2048 cycles): overflow heap, re-bucketed
        // when the window jumps.
        delay = Scheduler::kWheelSize + 1 + (r % 5000);
        break;
      default:
        delay = 1 + (r % 64);
        break;
    }
    s->after(delay, Chain{*this});
    if (r % 16 == 0) {
      s->after(delay, Chain{s, trace, budget, x ^ 0x243f6a8885a308d3ull,
                            id + 1000});
    }
  }
};

template <class Sched>
Trace run_workload(std::uint64_t seed) {
  Sched s;
  Trace trace;
  std::uint64_t budget = 4000;
  for (int i = 0; i < 8; ++i) {
    s.after(static_cast<Cycle>(i % 3),
            Chain<Sched>{&s, &trace, &budget,
                         seed + static_cast<std::uint64_t>(i) * 1013, i});
  }
  // Interleaved run(limit) segments: between segments, inject from outside
  // at absolute times derived only from the (deterministic) segment limit,
  // so both schedulers see identical injections.
  Cycle limit = 400;
  std::uint64_t y = seed ^ 0x9e3779b97f4a7c15ull;
  while (!s.run(limit)) {
    y = y * 6364136223846793005ull + 1442695040888963407ull;
    const int inj_id = -static_cast<int>((y >> 50) & 0xff) - 1;
    s.at(limit + 1 + ((y >> 30) % 97),
         Chain<Sched>{&s, &trace, &budget, y, inj_id});
    limit += 400;
  }
  return trace;
}

TEST(SchedulerPropertyTest, MatchesReferenceModelAcrossSeeds) {
  for (std::uint64_t seed : {0x1ull, 0xdeadbeefull, 0x0123456789abcdefull,
                             0x5555aaaa5555aaaaull}) {
    const Trace got = run_workload<Scheduler>(seed);
    const Trace want = run_workload<ReferenceScheduler>(seed);
    ASSERT_GT(want.size(), 4000u) << "workload must actually churn";
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "divergence at event " << i << " of seed " << seed << ": got ("
          << got[i].first << "," << got[i].second << ") want ("
          << want[i].first << "," << want[i].second << ")";
    }
  }
}

TEST(SchedulerPropertyTest, TieStormPreservesFifoAcrossOverflowSpill) {
  // All events at one far-future cycle: they enter via the overflow heap,
  // get re-bucketed on the window jump, and must still dispatch in
  // insertion order (the heap key carries seq for exactly this).
  Scheduler s;
  std::vector<int> order;
  const Cycle t = Scheduler::kWheelSize * 3 + 17;
  for (int i = 0; i < 500; ++i) {
    s.at(t, [&order, i] { order.push_back(i); });
  }
  EXPECT_TRUE(s.run(t + 1));
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
}

// ---- parked wakes: lanes vs a hand re-arming reference -----------------------

/// The reference: one (cycle, seq)-ordered map, one event popped at a
/// time. A parked record's wake does not run its handler: it counts a skip
/// and re-arms the record `interval` cycles on with a fresh seq.
class ReferenceParkScheduler {
 public:
  struct Rec {
    bool parked = false;
    std::uint64_t skipped = 0;
    std::function<void()> on_wake;
  };

  ReferenceParkScheduler(Cycle interval, std::size_t records)
      : interval_(interval), recs_(records) {}

  Cycle now() const { return now_; }
  void at(Cycle t, std::function<void()> fn) {
    ASSERT_GE(t, now_);
    q_.emplace(std::pair{t, ++seq_}, Ev{std::move(fn), -1});
  }
  void wake_at(Cycle t, int r) {
    ASSERT_GE(t, now_);
    q_.emplace(std::pair{t, ++seq_}, Ev{{}, r});
  }
  Rec& rec(int r) { return recs_[r]; }

  bool run(Cycle limit) {
    for (;;) {
      if (q_.empty() || q_.begin()->first.first > limit) return q_.empty();
      const auto it = q_.begin();
      now_ = it->first.first;
      Ev ev = std::move(it->second);
      q_.erase(it);
      ++events_;
      if (ev.rec < 0) {
        ev.fn();
      } else if (recs_[ev.rec].parked) {
        ++recs_[ev.rec].skipped;
        ++parked_wakes_;
        wake_at(now_ + interval_, ev.rec);
      } else {
        recs_[ev.rec].on_wake();
      }
    }
  }

  std::size_t pending() const { return q_.size(); }
  std::uint64_t events_processed() const { return events_; }
  std::uint64_t parked_wakes() const { return parked_wakes_; }

 private:
  struct Ev {
    std::function<void()> fn;
    int rec;
  };

  Cycle interval_;
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t parked_wakes_ = 0;
  std::multimap<std::pair<Cycle, std::uint64_t>, Ev> q_;
  std::vector<Rec> recs_;
};

/// sim::Scheduler behind the reference's record interface.
class LaneParkScheduler {
 public:
  struct Rec final : Wakeable {
    std::function<void()> fn;
    void on_wake() override { fn(); }
  };

  LaneParkScheduler(Cycle interval, std::size_t records) {
    s_.set_park_interval(interval);
    for (std::size_t i = 0; i < records; ++i) {
      recs_.push_back(std::make_unique<Rec>());
    }
  }

  Cycle now() const { return s_.now(); }
  void at(Cycle t, std::function<void()> fn) { s_.at(t, std::move(fn)); }
  void wake_at(Cycle t, int r) { s_.wake_at(t, *recs_[r]); }
  bool run(Cycle limit) { return s_.run(limit); }
  std::size_t pending() const { return s_.pending(); }
  std::uint64_t events_processed() const { return s_.events_processed(); }
  std::uint64_t parked_wakes() const { return s_.parked_wakes(); }

  void set_handler(int r, std::function<void()> fn) {
    recs_[r]->fn = std::move(fn);
  }
  bool parked(int r) const { return recs_[r]->park.parked(); }
  void park(int r) { recs_[r]->park.park(); }
  void unpark(int r) { recs_[r]->park.unpark(); }
  std::uint64_t skipped(int r) const { return recs_[r]->park.skipped(); }

 private:
  Scheduler s_;
  std::vector<std::unique_ptr<Rec>> recs_;
};

/// The same record interface over the reference.
class RefParkScheduler : public ReferenceParkScheduler {
 public:
  using ReferenceParkScheduler::ReferenceParkScheduler;
  void set_handler(int r, std::function<void()> fn) {
    rec(r).on_wake = std::move(fn);
  }
  bool parked(int r) { return rec(r).parked; }
  void park(int r) { rec(r).parked = true; }
  void unpark(int r) { rec(r).parked = false; }
  std::uint64_t skipped(int r) { return rec(r).skipped; }
};

/// What must agree after every run(): the clock, the counts and the
/// return value, per run() call.
struct RunState {
  bool drained;
  Cycle now;
  std::size_t pending;
  std::uint64_t events;
  std::uint64_t parked_wakes;
  std::vector<std::uint64_t> skipped;
  bool operator==(const RunState&) const = default;
};

struct ParkRun {
  std::vector<std::pair<Cycle, int>> log;  // (cycle, id) of every handler
  std::vector<RunState> runs;
};

/// Records retry NACK-style: a real wake often parks itself and re-arms
/// one interval on. Handlers also park and unpark other records (whose
/// wakes may sit before or after theirs in the same cycle), re-arm with
/// delays of 0-3, of exactly one interval, of 1-64 and past the wheel,
/// wake idle records, and schedule callbacks that park and unpark too.
/// The run proceeds in run(limit) windows with at() pushes, parks and
/// unparks between them. Every decision comes from one RNG consumed in
/// dispatch order, so any divergence in order shows in the log.
template <class Sched>
ParkRun drive_parked(std::uint64_t seed, Cycle interval) {
  constexpr int kRecs = 12;
  ParkRun out;
  Sched s(interval, kRecs);
  std::uint64_t x = seed;
  const auto rng = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  std::vector<bool> armed(kRecs, false);
  std::uint64_t budget = 6000;
  const auto wake = [&](int r, Cycle t) {
    armed[r] = true;
    s.wake_at(t, r);
  };
  const auto poke = [&](int q) {  // park or unpark another record
    if (rng() % 2 == 0) s.park(q);
    else s.unpark(q);
  };
  for (int r = 0; r < kRecs; ++r) {
    s.set_handler(r, [&, r] {
      out.log.emplace_back(s.now(), r);
      armed[r] = false;
      if (budget == 0) return;
      --budget;
      for (std::uint64_t k = rng() % 3; k > 0; --k) {
        poke(static_cast<int>(rng() % kRecs));
      }
      const std::uint64_t c = rng() % 16;
      if (c < 7) {  // a NACK: park and retry one interval on
        s.park(r);
        wake(r, s.now() + interval);
      } else if (c < 9) {
        wake(r, s.now() + rng() % 4);
      } else if (c < 10) {
        wake(r, s.now() + interval);
      } else if (c < 11) {
        wake(r, s.now() + Scheduler::kWheelSize + rng() % 3000);
      } else if (c < 14) {
        wake(r, s.now() + 1 + rng() % 64);
      }  // else: idle until someone wakes it
      const int q = static_cast<int>(rng() % kRecs);
      if (!armed[q]) wake(q, s.now() + (rng() % 2 == 0 ? interval : rng() % 8));
      if (rng() % 4 == 0) {
        const int t = static_cast<int>(rng() % kRecs);
        s.at(s.now() + rng() % 3, [&, t] {
          out.log.emplace_back(s.now(), 100 + t);
          poke(t);
        });
      }
    });
  }
  for (int r = 0; r < kRecs; ++r) wake(r, static_cast<Cycle>(r % 3));

  Cycle limit = 0;
  for (int window = 0;; ++window) {
    limit += 1 + rng() % 97;
    const bool drained = s.run(limit);
    RunState st{drained, s.now(), s.pending(), s.events_processed(),
                s.parked_wakes(), {}};
    for (int r = 0; r < kRecs; ++r) st.skipped.push_back(s.skipped(r));
    out.runs.push_back(std::move(st));
    if (drained) break;
    if (budget == 0 || window > 20000) {
      // Wind down: every record's next wake runs for real and stops.
      for (int r = 0; r < kRecs; ++r) s.unpark(r);
      continue;
    }
    // Between windows: the kind of pushes a PDES merge makes (at now()
    // too), and parks and unparks from outside run().
    for (std::uint64_t k = rng() % 3; k > 0; --k) {
      const int t = static_cast<int>(rng() % kRecs);
      s.at(s.now() + rng() % 40, [&, t] {
        out.log.emplace_back(s.now(), 200 + t);
        poke(t);
      });
    }
    if (rng() % 3 == 0) poke(static_cast<int>(rng() % kRecs));
    const int q = static_cast<int>(rng() % kRecs);
    if (!armed[q]) wake(q, s.now() + rng() % 30);
  }
  return out;
}

TEST(SchedulerParkPropertyTest, LanesMatchAReferenceThatReArmsEveryWake) {
  for (Cycle interval : {Cycle{1}, Cycle{3}, Cycle{20}, Cycle{97},
                         Cycle{Scheduler::kWheelSize + 5}}) {
    for (std::uint64_t seed : {0x1ull, 0xdeadbeefull, 0x0123456789abcdefull}) {
      const ParkRun want = drive_parked<RefParkScheduler>(seed, interval);
      const ParkRun got = drive_parked<LaneParkScheduler>(seed, interval);
      ASSERT_GT(want.log.size(), 6000u);
      ASSERT_GT(want.runs.back().parked_wakes, 2000u)
          << "the workload must park";
      ASSERT_EQ(got.log.size(), want.log.size())
          << "interval " << interval << " seed " << seed;
      for (std::size_t i = 0; i < want.log.size(); ++i) {
        ASSERT_EQ(got.log[i], want.log[i])
            << "dispatch " << i << " of interval " << interval << " seed "
            << seed;
      }
      ASSERT_EQ(got.runs.size(), want.runs.size());
      for (std::size_t i = 0; i < want.runs.size(); ++i) {
        ASSERT_EQ(got.runs[i], want.runs[i])
            << "after run " << i << " of interval " << interval << " seed "
            << seed;
      }
    }
  }
}

TEST(SchedulerPropertyTest, SchedulingIntoPastThrows) {
  // The binary heap merely mis-ordered a past-time event; the wheel would
  // mis-bucket it a full window late, so the guard throws in every build --
  // mutation-test it here.
  Scheduler s;
  s.at(50, [] {});
  EXPECT_TRUE(s.run(100));
  EXPECT_EQ(s.now(), 50u);
  EXPECT_THROW(s.at(10, [] {}), check::CheckFailure);
  // Same guard on the coroutine path, which allocates no callback record.
  EXPECT_THROW(s.resume_at(10, std::coroutine_handle<>{}),
               check::CheckFailure);
}

}  // namespace
}  // namespace suvtm::sim
