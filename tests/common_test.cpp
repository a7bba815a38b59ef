#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace suvtm {
namespace {

TEST(TypesTest, LineArithmetic) {
  EXPECT_EQ(line_of(0), 0u);
  EXPECT_EQ(line_of(63), 0u);
  EXPECT_EQ(line_of(64), 1u);
  EXPECT_EQ(addr_of_line(1), 64u);
  EXPECT_EQ(addr_of_line(line_of(0x12345)), 0x12340ull & ~63ull);
}

TEST(TypesTest, PageArithmetic) {
  EXPECT_EQ(page_of(0), 0u);
  EXPECT_EQ(page_of(4095), 0u);
  EXPECT_EQ(page_of(4096), 1u);
}

TEST(TypesTest, WordInLine) {
  EXPECT_EQ(word_in_line(0), 0u);
  EXPECT_EQ(word_in_line(8), 1u);
  EXPECT_EQ(word_in_line(56), 7u);
  EXPECT_EQ(word_in_line(64), 0u);
  EXPECT_EQ(word_in_line(65), 0u);  // sub-word offsets round down
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(RngTest, BelowOneAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(RngTest, RangeInclusive) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values show up
}

TEST(RngTest, UniformInUnitInterval) {
  Rng r(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(RngTest, ReseedResets) {
  Rng r(5);
  const auto first = r.next();
  r.next();
  r.reseed(5);
  EXPECT_EQ(r.next(), first);
}

}  // namespace
}  // namespace suvtm
