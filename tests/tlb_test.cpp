#include <gtest/gtest.h>

#include "mem/tlb.hpp"

namespace suvtm::mem {
namespace {

TEST(TlbTest, ColdMissThenHit) {
  Tlb t(4);
  auto a = t.access(0x1000);
  EXPECT_FALSE(a.hit);
  EXPECT_EQ(a.latency, Tlb::kMissLatency);
  auto b = t.access(0x1008);  // same page
  EXPECT_TRUE(b.hit);
  EXPECT_EQ(b.latency, 0u);
  EXPECT_EQ(b.slot, a.slot);
}

TEST(TlbTest, DistinctPagesDistinctSlots) {
  Tlb t(4);
  auto a = t.access(0 * kPageBytes);
  auto b = t.access(1 * kPageBytes);
  EXPECT_NE(a.slot, b.slot);
}

TEST(TlbTest, LruReplacement) {
  Tlb t(2);
  t.access(0 * kPageBytes);
  t.access(1 * kPageBytes);
  t.access(0 * kPageBytes);          // page 0 recently used
  auto c = t.access(2 * kPageBytes); // evicts page 1
  EXPECT_FALSE(c.hit);
  EXPECT_TRUE(t.access(0 * kPageBytes).hit);
  EXPECT_FALSE(t.access(1 * kPageBytes).hit);
}

TEST(TlbTest, FindSlotDoesNotTouch) {
  Tlb t(2);
  t.access(0 * kPageBytes);
  t.access(1 * kPageBytes);
  EXPECT_GE(t.find_slot(0), 0);
  EXPECT_EQ(t.find_slot(7), -1);
  // find_slot must not refresh LRU: page 0 is still the LRU victim.
  t.access(2 * kPageBytes);
  EXPECT_EQ(t.find_slot(0), -1);
}

TEST(TlbTest, PageAtReturnsMappedPage) {
  Tlb t(4);
  auto a = t.access(5 * kPageBytes + 123);
  EXPECT_EQ(t.page_at(a.slot), 5u);
}

TEST(TlbTest, HitMissCounters) {
  Tlb t(8);
  t.access(0);
  t.access(0);
  t.access(kPageBytes);
  EXPECT_EQ(t.hits(), 1u);
  EXPECT_EQ(t.misses(), 2u);
}

}  // namespace
}  // namespace suvtm::mem
