// Fundamental scalar types and constants shared across the simulator.
#pragma once

#include <cstdint>
#include <cstddef>

namespace suvtm {

/// Simulated time, in core clock cycles (1.2 GHz per Table III).
using Cycle = std::uint64_t;

/// Byte address in the simulated flat physical address space.
using Addr = std::uint64_t;

/// 64-byte cache-line address (Addr >> 6).
using LineAddr = std::uint64_t;

/// Core / hardware-thread identifier (0..kNumCores-1).
using CoreId = std::uint32_t;

inline constexpr std::uint32_t kLineBytes = 64;
inline constexpr std::uint32_t kLineShift = 6;
inline constexpr std::uint32_t kWordBytes = 8;
inline constexpr std::uint32_t kWordsPerLine = kLineBytes / kWordBytes;
inline constexpr std::uint32_t kPageBytes = 4096;
inline constexpr std::uint32_t kPageShift = 12;
inline constexpr std::uint32_t kLinesPerPage = kPageBytes / kLineBytes;

constexpr LineAddr line_of(Addr a) { return a >> kLineShift; }
constexpr Addr addr_of_line(LineAddr l) { return l << kLineShift; }
constexpr Addr page_of(Addr a) { return a >> kPageShift; }
constexpr std::uint32_t word_in_line(Addr a) {
  return static_cast<std::uint32_t>((a >> 3) & (kWordsPerLine - 1));
}

/// Sentinel for "no core".
inline constexpr CoreId kNoCore = 0xffffffffu;

/// The contiguous cores [first, first + count) one simulation domain runs:
/// every core on a monolithic machine, one shard's block on a sharded one.
struct CoreRange {
  CoreId first = 0;
  std::uint32_t count = 0;

  constexpr bool contains(CoreId c) const { return c - first < count; }
};

/// Base of the SUV preserved-pool region. Addresses at or above this are
/// redirect targets whose physical page pointer travels inside the redirect
/// entry itself (paper Figure 3: the entry stores a TLB index), so accesses
/// to them never need a TLB walk.
inline constexpr Addr kRedirectPoolBase = 1ull << 40;  // 1 TiB

}  // namespace suvtm
