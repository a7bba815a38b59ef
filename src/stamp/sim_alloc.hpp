// Simulated-memory allocation for workloads.
//
// Workload data lives in the simulator's flat address space, not host
// memory. A bump allocator carves shared structures at build time; STAMP's
// in-transaction allocations (TM_MALLOC) are served from per-thread arenas
// carved up front, which mirrors STAMP's per-thread memory pools and keeps
// allocator metadata out of the conflict sets.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace suvtm::stamp {

class SimAllocator {
 public:
  /// Workload heap starts above page 0 (kept unmapped to catch null-ish
  /// address bugs) and far below the SUV preserved-pool region.
  explicit SimAllocator(Addr base = 0x10000) : next_(base) {}

  Addr alloc(std::uint64_t bytes, std::uint64_t align = kWordBytes) {
    assert(align != 0 && (align & (align - 1)) == 0);
    next_ = (next_ + align - 1) & ~(align - 1);
    const Addr a = next_;
    next_ += bytes;
    return a;
  }

  /// Line-aligned allocation (distinct lines => no false sharing).
  Addr alloc_lines(std::uint64_t lines) {
    return alloc(lines * kLineBytes, kLineBytes);
  }

 private:
  Addr next_;
};

/// Fixed-size object arena in simulated memory: pre-carved nodes handed out
/// without any simulated-memory metadata traffic.
class SimArena {
 public:
  SimArena() = default;
  SimArena(SimAllocator& alloc, std::uint64_t object_bytes,
           std::uint64_t count)
      : object_bytes_((object_bytes + kWordBytes - 1) & ~(kWordBytes - 1)),
        count_(count) {
    base_ = alloc.alloc(object_bytes_ * count, kLineBytes);
  }

  /// Next free object. Exhaustion (a workload sizing bug, or a retry storm
  /// leaking more aborted attempts' nodes than the arena reserves) throws
  /// std::runtime_error in every build rather than hand out an address
  /// past the arena.
  Addr take() {
    if (used_ == count_) [[unlikely]] throw_exhausted();
    return base_ + (used_++) * object_bytes_;
  }

  std::uint64_t used() const { return used_; }
  std::uint64_t capacity() const { return count_; }

 private:
  [[noreturn]] void throw_exhausted() const {
    throw std::runtime_error(
        "SimArena exhausted: all " + std::to_string(count_) + " objects of " +
        std::to_string(object_bytes_) +
        " bytes taken; enlarge the workload arena");
  }

  Addr base_ = 0;
  std::uint64_t object_bytes_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t used_ = 0;
};

/// Per-thread arenas over one allocation: thread i's objects never share a
/// cache line with thread j's, mirroring STAMP's per-thread memory pools
/// (shared arenas false-share fresh nodes across threads and livelock
/// eager-conflict HTMs).
class PerThreadArena {
 public:
  PerThreadArena() = default;
  PerThreadArena(SimAllocator& alloc, std::uint64_t object_bytes,
                 std::uint64_t per_thread_count, std::uint32_t threads) {
    // Reserve far beyond the requested minimum: aborted attempts leak
    // nodes by design, and pathological retry storms (tiny signatures,
    // huge abort traps in ablation sweeps) can leak hundreds of nodes per
    // commit. Reserved-but-unwritten simulated address space costs nothing.
    const std::uint64_t reserve =
        std::max<std::uint64_t>(per_thread_count, 1ull << 20);
    arenas_.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
      arenas_.emplace_back(alloc, object_bytes, reserve);
      // Line-align the next thread's region.
      alloc.alloc_lines(1);
    }
  }

  Addr take(std::uint32_t thread) { return arenas_[thread].take(); }

 private:
  std::vector<SimArena> arenas_;
};

}  // namespace suvtm::stamp
