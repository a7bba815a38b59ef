// 2-D mesh network-on-chip latency model (paper Table III: 2-cycle wire +
// 1-cycle route per hop, adaptive routing approximated as minimal XY).
#pragma once

#include <cstdint>
#include <cstdlib>

#include "common/types.hpp"

namespace suvtm::mem {

class Mesh {
 public:
  static constexpr Cycle kWireLatency = 2;   // per hop (Table III)
  static constexpr Cycle kRouteLatency = 1;  // per hop (Table III)
  static constexpr Cycle kHopLatency = kWireLatency + kRouteLatency;

  explicit Mesh(std::uint32_t dim) : dim_(dim) {}

  std::uint32_t dim() const { return dim_; }

  /// Manhattan hop count between two tiles.
  std::uint32_t hops(std::uint32_t tile_a, std::uint32_t tile_b) const {
    const int ax = static_cast<int>(tile_a % dim_), ay = static_cast<int>(tile_a / dim_);
    const int bx = static_cast<int>(tile_b % dim_), by = static_cast<int>(tile_b / dim_);
    return static_cast<std::uint32_t>(std::abs(ax - bx) + std::abs(ay - by));
  }

  /// One-way message latency between two tiles.
  Cycle latency(std::uint32_t tile_a, std::uint32_t tile_b) const {
    return kHopLatency * hops(tile_a, tile_b);
  }

  /// L2 bank tile for a line (address-interleaved, one bank per tile).
  std::uint32_t bank_tile(LineAddr l) const {
    return static_cast<std::uint32_t>(l % (dim_ * dim_));
  }

  /// Average one-way latency to a uniformly random tile (used for costs we
  /// do not track per-endpoint, e.g. invalidation fan-out approximation).
  Cycle average_latency() const {
    // Mean Manhattan distance on an n x n mesh is ~ 2*(n^2-1)/(3n).
    const double n = static_cast<double>(dim_);
    const double mean_hops = 2.0 * (n * n - 1.0) / (3.0 * n);
    return static_cast<Cycle>(static_cast<double>(kHopLatency) * mean_hops +
                              0.5);
  }

 private:
  std::uint32_t dim_;
};

}  // namespace suvtm::mem
