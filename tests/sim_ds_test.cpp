#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "stamp/framework.hpp"
#include "stamp/sim_alloc.hpp"
#include "stamp/sim_ds.hpp"

namespace suvtm::stamp {
namespace {

// Single-threaded driver: run one coroutine on core 0 of a simulator.
class SimDsTest : public ::testing::Test {
 protected:
  SimDsTest() : sim_(make_config()) {}

  static sim::SimConfig make_config() {
    sim::SimConfig cfg;
    cfg.scheme = sim::Scheme::kSuv;  // exercise redirection under the DS ops
    return cfg;
  }

  template <class Fn>
  void run(Fn body) {
    sim_.spawn(0, driver(sim_.context(0), body));
    sim_.run();
  }

  template <class Fn>
  static sim::ThreadTask driver(sim::ThreadContext& tc, Fn body) {
    co_await body(tc);
  }

  sim::Simulator sim_;
  SimAllocator alloc_;
};

TEST_F(SimDsTest, AllocatorAlignsAndAdvances) {
  const Addr a = alloc_.alloc(10);
  const Addr b = alloc_.alloc(8);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_GE(b, a + 10);
  const Addr c = alloc_.alloc_lines(2);
  EXPECT_EQ(c % kLineBytes, 0u);
}

TEST_F(SimDsTest, ArenaHandsOutDistinctObjects) {
  SimArena arena(alloc_, 24, 10);
  const Addr a = arena.take();
  const Addr b = arena.take();
  EXPECT_GE(b, a + 24);
  EXPECT_EQ(arena.used(), 2u);
}

TEST_F(SimDsTest, ArenaExhaustionIsANamedError) {
  SimArena arena(alloc_, 20, 3);  // rounds up to 24-byte objects
  for (int i = 0; i < 3; ++i) arena.take();
  try {
    arena.take();
    FAIL() << "a fourth take() from a 3-object arena must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SimArena exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find(" 3 objects"), std::string::npos) << what;
    EXPECT_NE(what.find(" 24 bytes"), std::string::npos) << what;
  }
  EXPECT_EQ(arena.used(), 3u);
  // From a simulated thread the error leaves Simulator::run.
  const auto take_one = [&](sim::ThreadContext&) -> sim::Task<void> {
    arena.take();
    co_return;
  };
  EXPECT_THROW(run(take_one), std::runtime_error);
}

TEST_F(SimDsTest, PerThreadArenaSeparatesLines) {
  PerThreadArena arena(alloc_, 24, 8, 4);
  const Addr t0 = arena.take(0);
  const Addr t1 = arena.take(1);
  EXPECT_NE(line_of(t0), line_of(t1));
}

TEST_F(SimDsTest, HashMapInsertFind) {
  SimHashMap map(alloc_, 16, 64, 1);
  run([&](sim::ThreadContext& tc) -> sim::Task<void> {
    co_await tc.tx_begin();
    EXPECT_TRUE(co_await map.insert(tc, 5, 100));
    EXPECT_FALSE(co_await map.insert(tc, 5, 999));  // duplicate key
    EXPECT_TRUE(co_await map.insert(tc, 6, 200));
    const auto v5 = co_await map.find(tc, 5);
    const auto v6 = co_await map.find(tc, 6);
    const auto v7 = co_await map.find(tc, 7);
    EXPECT_EQ(v5, std::optional<std::uint64_t>(100));
    EXPECT_EQ(v6, std::optional<std::uint64_t>(200));
    EXPECT_FALSE(v7.has_value());
    co_await tc.tx_commit();
  });
}

TEST_F(SimDsTest, HashMapUpdate) {
  SimHashMap map(alloc_, 16, 64, 1);
  run([&](sim::ThreadContext& tc) -> sim::Task<void> {
    co_await tc.tx_begin();
    co_await map.insert(tc, 1, 10);
    EXPECT_TRUE(co_await map.update(tc, 1, 20));
    EXPECT_FALSE(co_await map.update(tc, 2, 20));
    EXPECT_EQ(co_await map.find(tc, 1), std::optional<std::uint64_t>(20));
    co_await tc.tx_commit();
  });
}

TEST_F(SimDsTest, HashMapErase) {
  SimHashMap map(alloc_, 4, 64, 1);  // few buckets: chains form
  run([&](sim::ThreadContext& tc) -> sim::Task<void> {
    co_await tc.tx_begin();
    for (std::uint64_t k = 1; k <= 12; ++k) co_await map.insert(tc, k, k * 10);
    const auto gone = co_await map.erase(tc, 6);
    EXPECT_EQ(gone, std::optional<std::uint64_t>(60));
    EXPECT_FALSE((co_await map.find(tc, 6)).has_value());
    // Neighbours in the chain survive.
    for (std::uint64_t k = 1; k <= 12; ++k) {
      if (k == 6) continue;
      EXPECT_EQ(co_await map.find(tc, k), std::optional<std::uint64_t>(k * 10));
    }
    EXPECT_FALSE((co_await map.erase(tc, 99)).has_value());
    co_await tc.tx_commit();
  });
}

TEST_F(SimDsTest, HashMapPreloadVisibleToTransactions) {
  SimHashMap map(alloc_, 16, 64, 1);
  map.preload(sim_.mem().backing(), 7, 700);
  run([&](sim::ThreadContext& tc) -> sim::Task<void> {
    co_await tc.tx_begin();
    EXPECT_EQ(co_await map.find(tc, 7), std::optional<std::uint64_t>(700));
    co_await tc.tx_commit();
  });
}

TEST_F(SimDsTest, HashMapPeekResolvesRedirection) {
  SimHashMap map(alloc_, 16, 64, 1);
  run([&](sim::ThreadContext& tc) -> sim::Task<void> {
    co_await tc.tx_begin();
    co_await map.insert(tc, 3, 33);
    co_await tc.tx_commit();
  });
  // Committed under SUV: the node may live in a redirected pool line.
  const auto load = [&](Addr a) { return sim_.read_word_resolved(a); };
  EXPECT_EQ(map.peek(load, 3), std::optional<std::uint64_t>(33));
  EXPECT_FALSE(map.peek(load, 4).has_value());
}

TEST_F(SimDsTest, QueueFifoOrder) {
  SimQueue q(alloc_, 8);
  run([&](sim::ThreadContext& tc) -> sim::Task<void> {
    co_await tc.tx_begin();
    for (std::uint64_t v = 1; v <= 5; ++v) {
      EXPECT_TRUE(co_await q.push(tc, v));
    }
    for (std::uint64_t v = 1; v <= 5; ++v) {
      EXPECT_EQ(co_await q.pop(tc), std::optional<std::uint64_t>(v));
    }
    EXPECT_FALSE((co_await q.pop(tc)).has_value());
    co_await tc.tx_commit();
  });
}

TEST_F(SimDsTest, QueueRejectsWhenFull) {
  SimQueue q(alloc_, 2);
  run([&](sim::ThreadContext& tc) -> sim::Task<void> {
    co_await tc.tx_begin();
    EXPECT_TRUE(co_await q.push(tc, 1));
    EXPECT_TRUE(co_await q.push(tc, 2));
    EXPECT_FALSE(co_await q.push(tc, 3));
    co_await q.pop(tc);
    EXPECT_TRUE(co_await q.push(tc, 3));  // wraps around
    co_await tc.tx_commit();
  });
}

TEST_F(SimDsTest, QueuePreload) {
  SimQueue q(alloc_, 16);
  q.preload(sim_.mem().backing(), {9, 8, 7});
  run([&](sim::ThreadContext& tc) -> sim::Task<void> {
    co_await tc.tx_begin();
    EXPECT_EQ(co_await q.pop(tc), std::optional<std::uint64_t>(9));
    EXPECT_EQ(co_await q.pop(tc), std::optional<std::uint64_t>(8));
    EXPECT_EQ(co_await q.pop(tc), std::optional<std::uint64_t>(7));
    EXPECT_FALSE((co_await q.pop(tc)).has_value());
    co_await tc.tx_commit();
  });
}

TEST_F(SimDsTest, SortedListKeepsOrderAndDedups) {
  SimSortedList list(alloc_, 64, 1);
  run([&](sim::ThreadContext& tc) -> sim::Task<void> {
    co_await tc.tx_begin();
    EXPECT_TRUE(co_await list.insert(tc, 30));
    EXPECT_TRUE(co_await list.insert(tc, 10));
    EXPECT_TRUE(co_await list.insert(tc, 20));
    EXPECT_FALSE(co_await list.insert(tc, 20));  // duplicate
    EXPECT_TRUE(co_await list.contains(tc, 10));
    EXPECT_TRUE(co_await list.contains(tc, 20));
    EXPECT_TRUE(co_await list.contains(tc, 30));
    EXPECT_FALSE(co_await list.contains(tc, 15));
    EXPECT_FALSE(co_await list.contains(tc, 40));
    co_await tc.tx_commit();
  });
}

}  // namespace
}  // namespace suvtm::stamp
