// Randomized property tests for the flat-container kit: FlatMap, FlatSet
// and LineSet are driven through long op sequences against std::unordered
// reference models, plus directed tests for the backshift-erase wraparound
// cases (probe chains crossing the table's top slot) that random keys with
// a mixing hash almost never exercise.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_hash.hpp"
#include "mem/directory.hpp"

namespace suvtm {
namespace {

/// Identity hash: lets a test choose home slots directly, forcing probe
/// chains (and backshift scans) to wrap around the power-of-two table.
struct IdentityHash {
  std::size_t operator()(std::uint64_t k) const {
    return static_cast<std::size_t>(k);
  }
};

template <class Map, class Ref>
void expect_map_equals(const Map& m, const Ref& ref) {
  ASSERT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    auto it = m.find(k);
    ASSERT_NE(it, m.end()) << "missing key " << k;
    EXPECT_EQ(it->second, v) << "wrong value for key " << k;
  }
  std::size_t walked = 0;
  for (const auto& slot : m) {
    auto it = ref.find(slot.first);
    ASSERT_NE(it, ref.end()) << "phantom key " << slot.first;
    EXPECT_EQ(slot.second, it->second);
    ++walked;
  }
  EXPECT_EQ(walked, ref.size());
}

TEST(FlatMapProperty, MatchesUnorderedMapUnderRandomOps) {
  std::mt19937_64 rng(12345);
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  // Small key space so inserts, hits, overwrites and erases all happen.
  std::uniform_int_distribution<std::uint64_t> key(0, 300);
  std::uniform_int_distribution<int> op(0, 99);

  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t k = key(rng);
    const int o = op(rng);
    if (o < 35) {
      const std::uint64_t v = rng();
      m[k] = v;
      ref[k] = v;
    } else if (o < 50) {
      const std::uint64_t v = rng();
      auto [it, ins] = m.try_emplace(k, v);
      auto [rit, rins] = ref.try_emplace(k, v);
      EXPECT_EQ(ins, rins);
      EXPECT_EQ(it->second, rit->second);
    } else if (o < 75) {
      EXPECT_EQ(m.erase(k), ref.erase(k));
    } else if (o < 80) {
      auto it = m.find(k);
      if (it != m.end()) {
        m.erase(it);
        ref.erase(k);
      }
    } else if (o < 99) {
      EXPECT_EQ(m.count(k), ref.count(k));
      auto it = m.find(k);
      auto rit = ref.find(k);
      ASSERT_EQ(it == m.end(), rit == ref.end());
      if (it != m.end()) {
        EXPECT_EQ(it->second, rit->second);
      }
    } else {
      m.clear();
      ref.clear();
    }
    if (step % 2500 == 0) expect_map_equals(m, ref);
  }
  expect_map_equals(m, ref);
}

TEST(FlatMapProperty, ColludingKeysMatchReferenceThroughWraparound) {
  // Identity hash + keys congruent mod a small stride: every probe chain is
  // long and many cross slot 0, so backshift erase must reason about cyclic
  // distance correctly to keep the survivors findable.
  std::mt19937_64 rng(987);
  FlatMap<std::uint64_t, std::uint64_t, IdentityHash> m;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  std::uniform_int_distribution<std::uint64_t> home(0, 15);
  std::uniform_int_distribution<std::uint64_t> gen(0, 7);
  std::uniform_int_distribution<int> op(0, 9);

  for (int step = 0; step < 20000; ++step) {
    // Keys 16*g + h all target home slot h while capacity is 16.
    const std::uint64_t k = 16 * gen(rng) + home(rng);
    if (op(rng) < 6) {
      const std::uint64_t v = rng();
      m[k] = v;
      ref[k] = v;
    } else {
      EXPECT_EQ(m.erase(k), ref.erase(k));
    }
    EXPECT_EQ(m.count(k), ref.count(k));
  }
  expect_map_equals(m, ref);
}

TEST(FlatMapBackshift, EraseUnlinksChainThatWrapsPastSlotZero) {
  // Directed wraparound: homes at the top of the 16-slot table, chain
  // spilling over slot 0. Erasing the entry sitting AT the top must pull
  // the wrapped successors back without teleporting an entry past its home.
  FlatMap<std::uint64_t, std::uint64_t, IdentityHash> m;
  // All five keys home to slots 14/15 while capacity is 16: occupancy runs
  // 14, 15, 0, 1, 2 after the probe chain wraps.
  const std::uint64_t keys[] = {14, 15, 30, 31, 46};
  for (std::uint64_t k : keys) m[k] = 100 + k;
  for (std::uint64_t victim : keys) {
    for (std::uint64_t k : keys) m[k] = 100 + k;  // reset/refresh
    ASSERT_EQ(m.erase(victim), 1u);
    for (std::uint64_t k : keys) {
      if (k == victim) {
        EXPECT_FALSE(m.contains(k));
      } else {
        auto it = m.find(k);
        ASSERT_NE(it, m.end()) << "lost key " << k << " erasing " << victim;
        EXPECT_EQ(it->second, 100 + k);
      }
    }
    m[victim] = 100 + victim;  // restore for the next round
  }
}

TEST(FlatSetProperty, MatchesUnorderedSetUnderRandomOps) {
  std::mt19937_64 rng(777);
  FlatSet<std::uint64_t> s;
  std::unordered_set<std::uint64_t> ref;
  std::uniform_int_distribution<std::uint64_t> key(0, 500);
  std::uniform_int_distribution<int> op(0, 99);

  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t k = key(rng);
    const int o = op(rng);
    if (o < 45) {
      EXPECT_EQ(s.insert(k), ref.insert(k).second);
    } else if (o < 75) {
      EXPECT_EQ(s.erase(k), ref.erase(k));
    } else if (o < 99) {
      EXPECT_EQ(s.contains(k), ref.contains(k));
    } else {
      s.clear();
      ref.clear();
    }
  }
  ASSERT_EQ(s.size(), ref.size());
  for (std::uint64_t k : ref) EXPECT_TRUE(s.contains(k));
  std::size_t walked = 0;
  for (std::uint64_t k : s) {
    EXPECT_TRUE(ref.contains(k));
    ++walked;
  }
  EXPECT_EQ(walked, ref.size());
}

TEST(LineSetProperty, MatchesReferenceAndKeepsInsertionOrder) {
  std::mt19937_64 rng(424242);
  LineSet s;
  std::unordered_set<LineAddr> ref;
  std::vector<LineAddr> order;  // reference insertion order
  std::uniform_int_distribution<LineAddr> key(0, 80);
  std::uniform_int_distribution<int> op(0, 99);

  for (int step = 0; step < 20000; ++step) {
    const LineAddr l = key(rng);
    const int o = op(rng);
    if (o < 55) {
      // Crosses the small-buffer threshold back and forth: the key space is
      // larger than the scan limit, so the set regularly runs indexed
      // between clears.
      const bool inserted = s.insert(l);
      EXPECT_EQ(inserted, ref.insert(l).second);
      if (inserted) order.push_back(l);
    } else if (o < 99) {
      EXPECT_EQ(s.contains(l), ref.contains(l));
      EXPECT_EQ(s.count(l), ref.count(l));
    } else {
      s.clear();
      ref.clear();
      order.clear();
    }
    ASSERT_EQ(s.size(), ref.size());
  }
  // Iteration must replay exactly the surviving insertion order.
  std::vector<LineAddr> walked(s.begin(), s.end());
  EXPECT_EQ(walked, order);
}

TEST(DirectoryProperty, MatchesReferenceModelUnderRandomOps) {
  std::mt19937_64 rng(31337);
  mem::Directory dir;
  std::unordered_map<LineAddr, mem::DirEntry> ref;
  std::uniform_int_distribution<LineAddr> line(0, 200);
  std::uniform_int_distribution<std::uint32_t> core(0, 15);
  std::uniform_int_distribution<int> op(0, 9);

  for (int step = 0; step < 20000; ++step) {
    const LineAddr l = line(rng);
    const CoreId c = core(rng);
    const int o = op(rng);
    if (o < 3) {  // add a sharer
      dir.entry(l).sharers |= 1u << c;
      ref[l].sharers |= 1u << c;
    } else if (o < 5) {  // set an owner
      dir.entry(l).owner = c;
      ref[l].owner = c;
    } else if (o < 9) {  // L1 eviction path: may backshift-erase
      dir.remove_core(l, c);
      auto it = ref.find(l);
      if (it != ref.end()) {
        it->second.sharers &= ~(1u << c);
        if (it->second.owner == c) it->second.owner = kNoCore;
        if (it->second.sharers == 0 && it->second.owner == kNoCore) {
          ref.erase(it);
        }
      }
    } else {  // lookup
      const mem::DirEntry* e = dir.find(l);
      auto it = ref.find(l);
      ASSERT_EQ(e == nullptr, it == ref.end());
      if (e) {
        EXPECT_EQ(e->sharers, it->second.sharers);
        EXPECT_EQ(e->owner, it->second.owner);
      }
    }
  }
  ASSERT_EQ(dir.tracked_lines(), ref.size());
  for (const auto& [l, e] : ref) {
    const mem::DirEntry* d = dir.find(l);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->sharers, e.sharers);
    EXPECT_EQ(d->owner, e.owner);
  }
}

}  // namespace
}  // namespace suvtm
