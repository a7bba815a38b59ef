#include <gtest/gtest.h>

#include "mem/cache.hpp"

namespace suvtm::mem {
namespace {

// 4 sets x 2 ways: small enough to exercise eviction deterministically.
Cache tiny() { return Cache(4 * 2 * kLineBytes, 2); }

// Lines mapping to set 0 of the tiny cache (4 sets).
constexpr LineAddr set0(std::uint64_t k) { return k * 4; }

TEST(CacheTest, Geometry) {
  Cache c(32 * 1024, 4);
  EXPECT_EQ(c.num_sets(), 128u);  // 32KB / 64B / 4 -- the 7-bit L1 index
  EXPECT_EQ(c.assoc(), 4u);
  Cache t = tiny();
  EXPECT_EQ(t.num_sets(), 4u);
}

TEST(CacheTest, MissThenHit) {
  Cache c = tiny();
  EXPECT_EQ(c.find(5), nullptr);
  c.insert(5, CohState::kShared);
  ASSERT_NE(c.find(5), nullptr);
  EXPECT_EQ(c.find(5)->state, CohState::kShared);
}

TEST(CacheTest, InsertUpdatesExistingState) {
  Cache c = tiny();
  c.insert(5, CohState::kShared);
  auto v = c.insert(5, CohState::kModified);
  EXPECT_FALSE(v.valid);  // no eviction: same line upgraded
  EXPECT_EQ(c.find(5)->state, CohState::kModified);
  EXPECT_EQ(c.set_occupancy(5), 1u);
}

TEST(CacheTest, EvictsLruWhenSetFull) {
  Cache c = tiny();
  c.insert(set0(1), CohState::kShared);
  c.insert(set0(2), CohState::kShared);
  // Touch line 1 so line 2 becomes LRU.
  c.touch(*c.find(set0(1)));
  auto v = c.insert(set0(3), CohState::kShared);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.line, set0(2));
  EXPECT_NE(c.find(set0(1)), nullptr);
  EXPECT_EQ(c.find(set0(2)), nullptr);
}

TEST(CacheTest, VictimReportsModifiedState) {
  Cache c = tiny();
  c.insert(set0(1), CohState::kModified);
  c.insert(set0(2), CohState::kShared);
  auto v = c.insert(set0(3), CohState::kShared);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.line, set0(1));
  EXPECT_EQ(v.state, CohState::kModified);
}

TEST(CacheTest, SpeculativeLinesEvictedLast) {
  Cache c = tiny();
  c.insert(set0(1), CohState::kModified);
  c.find(set0(1))->speculative = true;
  c.insert(set0(2), CohState::kShared);
  // Line 1 is older but speculative: line 2 must be the victim.
  auto v = c.insert(set0(3), CohState::kShared);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.line, set0(2));
  EXPECT_NE(c.find(set0(1)), nullptr);
}

TEST(CacheTest, AllSpeculativeSetEvictsAnywayAndReportsIt) {
  Cache c = tiny();
  c.insert(set0(1), CohState::kModified);
  c.insert(set0(2), CohState::kModified);
  c.find(set0(1))->speculative = true;
  c.find(set0(2))->speculative = true;
  auto v = c.insert(set0(3), CohState::kModified);
  ASSERT_TRUE(v.valid);
  EXPECT_TRUE(v.speculative);  // FasTM overflow signal
  EXPECT_EQ(v.line, set0(1));  // LRU among speculative lines
}

TEST(CacheTest, Invalidate) {
  Cache c = tiny();
  c.insert(9, CohState::kExclusive);
  c.invalidate(9);
  EXPECT_EQ(c.find(9), nullptr);
  EXPECT_EQ(c.set_occupancy(9), 0u);
  c.invalidate(1234);  // absent line: no-op
}

TEST(CacheTest, InvalidatedWayIsReusedWithoutEviction) {
  Cache c = tiny();
  c.insert(set0(1), CohState::kShared);
  c.insert(set0(2), CohState::kShared);
  c.invalidate(set0(1));
  auto v = c.insert(set0(3), CohState::kShared);
  EXPECT_FALSE(v.valid);
  EXPECT_NE(c.find(set0(2)), nullptr);
  EXPECT_NE(c.find(set0(3)), nullptr);
}

TEST(CacheTest, ForEachVisitsOnlyValidLines) {
  Cache c = tiny();
  c.insert(1, CohState::kShared);
  c.insert(2, CohState::kModified);
  c.insert(3, CohState::kShared);
  c.invalidate(2);
  int count = 0;
  c.for_each([&](Cache::Line&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(CacheTest, FlashClearSpeculativeViaForEach) {
  Cache c = tiny();
  c.insert(1, CohState::kModified);
  c.insert(2, CohState::kModified);
  c.find(1)->speculative = true;
  c.find(2)->speculative = true;
  c.for_each([](Cache::Line& ln) { ln.speculative = false; });
  EXPECT_FALSE(c.find(1)->speculative);
  EXPECT_FALSE(c.find(2)->speculative);
}

TEST(CacheTest, DifferentSetsDoNotInterfere) {
  Cache c = tiny();
  for (LineAddr l = 0; l < 8; ++l) c.insert(l, CohState::kShared);
  for (LineAddr l = 0; l < 8; ++l) EXPECT_NE(c.find(l), nullptr);
}

TEST(CacheTest, ReusedTagArrayReadsAsEmpty) {
  // The tag array is allocated uninitialized. Freed and reallocated at the
  // same size, the heap normally hands the old block straight back, still
  // holding the previous cache's valid lines: the new cache must read as
  // empty anyway. 64 KB / 4-way is a 24 KB array, below the allocator's
  // mmap threshold, so the block is recycled rather than freshly mapped.
  constexpr std::uint32_t kBytes = 64 * 1024;
  constexpr std::uint32_t kAssoc = 4;
  const LineAddr lines = LineAddr{kBytes / kLineBytes};
  {
    Cache old(kBytes, kAssoc);
    for (LineAddr l = 0; l < lines; ++l) old.insert(l, CohState::kModified);
    for (LineAddr l = 0; l < lines; ++l) ASSERT_NE(old.find(l), nullptr);
  }
  Cache c(kBytes, kAssoc);
  for (LineAddr l = 0; l < lines; ++l) {
    EXPECT_EQ(c.find(l), nullptr) << "line " << l;
    EXPECT_EQ(c.set_occupancy(l), 0u) << "line " << l;
  }
  int visited = 0;
  c.for_each([&](const Cache::Line&) { ++visited; });
  EXPECT_EQ(visited, 0);
  for (std::uint32_t s = 0; s < c.num_sets(); ++s) {
    EXPECT_FALSE(c.insert(lines + s, CohState::kShared).valid) << "set " << s;
  }
}

TEST(CohStateTest, Names) {
  EXPECT_STREQ(coh_state_name(CohState::kInvalid), "I");
  EXPECT_STREQ(coh_state_name(CohState::kShared), "S");
  EXPECT_STREQ(coh_state_name(CohState::kExclusive), "E");
  EXPECT_STREQ(coh_state_name(CohState::kModified), "M");
}

}  // namespace
}  // namespace suvtm::mem
