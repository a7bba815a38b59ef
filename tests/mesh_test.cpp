#include <gtest/gtest.h>

#include "mem/mesh.hpp"

namespace suvtm::mem {
namespace {

TEST(MeshTest, HopsManhattan) {
  Mesh m(4);
  EXPECT_EQ(m.hops(0, 0), 0u);
  EXPECT_EQ(m.hops(0, 3), 3u);    // (0,0) -> (3,0)
  EXPECT_EQ(m.hops(0, 15), 6u);   // (0,0) -> (3,3)
  EXPECT_EQ(m.hops(5, 10), 2u);   // (1,1) -> (2,2)
}

TEST(MeshTest, HopsSymmetric) {
  Mesh m(4);
  for (std::uint32_t a = 0; a < 16; ++a) {
    for (std::uint32_t b = 0; b < 16; ++b) {
      EXPECT_EQ(m.hops(a, b), m.hops(b, a));
    }
  }
}

TEST(MeshTest, LatencyPerHop) {
  Mesh m(4);  // 3 cycles per hop (paper Table III)
  EXPECT_EQ(m.latency(0, 0), 0u);
  EXPECT_EQ(m.latency(0, 15), 18u);
}

TEST(MeshTest, BankInterleavingCoversAllTiles) {
  Mesh m(4);
  bool seen[16] = {};
  for (LineAddr l = 0; l < 64; ++l) seen[m.bank_tile(l)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(MeshTest, AdjacentLinesDifferentBanks) {
  Mesh m(4);
  EXPECT_NE(m.bank_tile(0), m.bank_tile(1));
}

TEST(MeshTest, AverageLatencyReasonable) {
  Mesh m(4);
  // Mean Manhattan distance on 4x4 is 2*(16-1)/(3*4) = 2.5 hops = 7.5 cycles.
  EXPECT_NEAR(static_cast<double>(m.average_latency()), 7.5, 1.0);
}

}  // namespace
}  // namespace suvtm::mem
