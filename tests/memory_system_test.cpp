#include <gtest/gtest.h>

#include "mem/memory_system.hpp"

namespace suvtm::mem {
namespace {

sim::MemParams params() { return sim::MemParams{}; }  // paper Table III

TEST(MemorySystemTest, ColdReadMissGoesToMemory) {
  MemorySystem m(params());
  auto out = m.access(0, 0x1000, false);
  EXPECT_FALSE(out.l1_hit);
  EXPECT_FALSE(out.l2_hit);
  // At least L1 + directory + L2 + memory latency.
  EXPECT_GE(out.latency, 1u + 6u + 15u + 150u);
  EXPECT_EQ(m.stats().l2_misses, 1u);
}

TEST(MemorySystemTest, SecondReadHitsL1) {
  MemorySystem m(params());
  m.access(0, 0x1000, false);
  auto out = m.access(0, 0x1000, false);
  EXPECT_TRUE(out.l1_hit);
  EXPECT_EQ(out.latency, 1u);  // 1-cycle L1
}

TEST(MemorySystemTest, SameLineDifferentWordHits) {
  MemorySystem m(params());
  m.access(0, 0x1000, false);
  EXPECT_TRUE(m.access(0, 0x1038, false).l1_hit);
}

TEST(MemorySystemTest, ExclusiveReadThenSilentUpgrade) {
  MemorySystem m(params());
  m.access(0, 0x1000, false);  // sole reader -> E
  auto* ln = m.l1(0).find(line_of(0x1000));
  ASSERT_NE(ln, nullptr);
  EXPECT_EQ(ln->state, CohState::kExclusive);
  auto out = m.access(0, 0x1000, true);  // E -> M, no coherence traffic
  EXPECT_TRUE(out.l1_hit);
  EXPECT_EQ(out.latency, 1u);
  EXPECT_EQ(m.l1(0).find(line_of(0x1000))->state, CohState::kModified);
}

TEST(MemorySystemTest, SecondReaderGetsSharedState) {
  MemorySystem m(params());
  m.access(0, 0x1000, false);
  m.access(1, 0x1000, false);
  EXPECT_EQ(m.l1(1).find(line_of(0x1000))->state, CohState::kShared);
  // The first reader was downgraded from E.
  EXPECT_EQ(m.l1(0).find(line_of(0x1000))->state, CohState::kShared);
}

TEST(MemorySystemTest, ReadFromModifiedOwnerForwards) {
  MemorySystem m(params());
  m.access(0, 0x1000, true);  // core 0 owns M
  const auto before = m.stats().forwards;
  auto out = m.access(1, 0x1000, false);
  EXPECT_EQ(m.stats().forwards, before + 1);
  EXPECT_FALSE(out.l1_hit);
  EXPECT_EQ(m.l1(0).find(line_of(0x1000))->state, CohState::kShared);
}

TEST(MemorySystemTest, WriteInvalidatesSharers) {
  MemorySystem m(params());
  m.access(0, 0x1000, false);
  m.access(1, 0x1000, false);
  m.access(2, 0x1000, false);
  m.access(3, 0x1000, true);  // GETM invalidates cores 0..2
  EXPECT_EQ(m.l1(0).find(line_of(0x1000)), nullptr);
  EXPECT_EQ(m.l1(1).find(line_of(0x1000)), nullptr);
  EXPECT_EQ(m.l1(2).find(line_of(0x1000)), nullptr);
  EXPECT_EQ(m.l1(3).find(line_of(0x1000))->state, CohState::kModified);
  EXPECT_GE(m.stats().invalidations, 3u);
}

TEST(MemorySystemTest, WriteTakesOwnershipFromModifiedOwner) {
  MemorySystem m(params());
  m.access(0, 0x1000, true);
  m.access(1, 0x1000, true);
  EXPECT_EQ(m.l1(0).find(line_of(0x1000)), nullptr);
  EXPECT_EQ(m.l1(1).find(line_of(0x1000))->state, CohState::kModified);
  EXPECT_GE(m.stats().writebacks, 1u);  // owner's dirty data went to L2
}

TEST(MemorySystemTest, FunctionalStoreVisibleAcrossCores) {
  MemorySystem m(params());
  m.access(0, 0x2000, true);
  m.store_word(0x2000, 77);
  m.access(1, 0x2000, false);
  EXPECT_EQ(m.load_word(0x2000), 77u);
}

TEST(MemorySystemTest, L1CapacityEviction) {
  MemorySystem m(params());
  // Fill one L1 set (4 ways, 128 sets): lines with identical set index.
  const std::uint32_t sets = m.l1(0).num_sets();
  for (int i = 0; i < 5; ++i) {
    m.access(0, static_cast<Addr>(i) * sets * kLineBytes, true);
  }
  // First line evicted, dirty writeback recorded.
  EXPECT_EQ(m.l1(0).find(0), nullptr);
  EXPECT_GE(m.stats().writebacks, 1u);
  // It must hit in the L2 now (writeback preserved the data's presence).
  auto out = m.access(0, 0, false);
  EXPECT_TRUE(out.l2_hit);
}

TEST(MemorySystemTest, SpeculativeEvictionReported) {
  MemorySystem m(params());
  const std::uint32_t sets = m.l1(0).num_sets();
  for (int i = 0; i < 4; ++i) {
    m.access(0, static_cast<Addr>(i) * sets * kLineBytes, true);
    m.mark_speculative(0, static_cast<LineAddr>(i) * sets);
  }
  auto out = m.access(0, static_cast<Addr>(4) * sets * kLineBytes, true);
  EXPECT_TRUE(out.evicted_speculative);
  EXPECT_EQ(m.stats().spec_evictions, 1u);
}

TEST(MemorySystemTest, MarkSpeculativeRequiresResidency) {
  MemorySystem m(params());
  EXPECT_FALSE(m.mark_speculative(0, 123));
  m.access(0, 123 * kLineBytes, true);
  EXPECT_TRUE(m.mark_speculative(0, 123));
}

TEST(MemorySystemTest, ClearSpeculativeKeepsLines) {
  MemorySystem m(params());
  m.access(0, 0x3000, true);
  m.mark_speculative(0, line_of(0x3000));
  m.clear_speculative(0);
  auto* ln = m.l1(0).find(line_of(0x3000));
  ASSERT_NE(ln, nullptr);
  EXPECT_FALSE(ln->speculative);
}

TEST(MemorySystemTest, InvalidateSpeculativeDropsLines) {
  MemorySystem m(params());
  m.access(0, 0x3000, true);
  m.access(0, 0x4000, true);
  m.mark_speculative(0, line_of(0x3000));
  m.invalidate_speculative(0);
  EXPECT_EQ(m.l1(0).find(line_of(0x3000)), nullptr);
  EXPECT_NE(m.l1(0).find(line_of(0x4000)), nullptr);
}

TEST(MemorySystemTest, InstallLineGivesModifiedWithoutMemoryTraffic) {
  MemorySystem m(params());
  const auto misses_before = m.stats().l2_misses;
  m.install_line(0, 555);
  EXPECT_EQ(m.stats().l2_misses, misses_before);
  auto out = m.access(0, 555 * kLineBytes, true);
  EXPECT_TRUE(out.l1_hit);
}

TEST(MemorySystemTest, InstallLineInvalidatesOtherCopies) {
  MemorySystem m(params());
  m.access(1, 555 * kLineBytes, false);
  m.install_line(0, 555);
  EXPECT_EQ(m.l1(1).find(555), nullptr);
}

TEST(MemorySystemTest, TlbMissChargedOnNewPage) {
  MemorySystem m(params());
  // Same page AND the same L2 bank (16-bank line interleave), so the only
  // latency difference is the first access's TLB walk.
  auto out1 = m.access(0, 0x10000, false);
  auto out2 = m.access(0, 0x10000 + 16 * kLineBytes, false);
  EXPECT_EQ(out1.latency, out2.latency + Tlb::kMissLatency);
}

TEST(MemorySystemTest, PoolRegionBypassesTlb) {
  MemorySystem m(params());
  const auto misses_before = m.tlb(0).misses();
  m.access(0, kRedirectPoolBase + 64, true);
  EXPECT_EQ(m.tlb(0).misses(), misses_before);
}

TEST(MemorySystemTest, FarTilesCostMoreThanNearTiles) {
  MemorySystem m(params());
  // Line homed at bank 0: access from tile 0 vs tile 15.
  const Addr a = 0;  // line 0 -> bank 0
  auto near = m.access(0, a, false);
  MemorySystem m2(params());
  auto far = m2.access(15, a, false);
  EXPECT_GT(far.latency, near.latency);
}

}  // namespace
}  // namespace suvtm::mem
