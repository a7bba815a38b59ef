// Transactional data structures over simulated memory.
//
// These are the building blocks the STAMP-like kernels share: a chained
// hash map, a bounded FIFO queue and a sorted linked list, all of whose
// loads/stores go through the ThreadContext (and therefore through the HTM
// and the memory hierarchy). Host-side members hold only immutable layout
// metadata; every mutable word lives in simulated memory.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "mem/backing_store.hpp"
#include "sim/task.hpp"
#include "sim/thread_context.hpp"
#include "stamp/sim_alloc.hpp"

namespace suvtm::stamp {

inline constexpr std::uint64_t kNullPtr = 0;  // sim-memory null

/// Chained hash map: bucket array of head pointers, nodes {key, value, next}
/// carved from a SimArena. Keys must be nonzero.
class SimHashMap {
 public:
  SimHashMap() = default;
  /// `nodes_per_thread` sizes each thread's private node pool (include
  /// slack: aborted attempts leak nodes by design). `padded_buckets` puts
  /// each bucket head on its own cache line (trades space for fewer
  /// false-sharing conflicts on the head array).
  SimHashMap(SimAllocator& alloc, std::uint64_t buckets,
             std::uint64_t nodes_per_thread, std::uint32_t threads,
             bool padded_buckets = false);

  /// Insert key -> value; returns false (no write) if the key exists.
  sim::Task<bool> insert(sim::ThreadContext& tc, std::uint64_t key,
                         std::uint64_t value);
  /// Value for key, or nullopt.
  sim::Task<std::optional<std::uint64_t>> find(sim::ThreadContext& tc,
                                               std::uint64_t key);
  /// Overwrite an existing key's value; returns false if absent.
  sim::Task<bool> update(sim::ThreadContext& tc, std::uint64_t key,
                         std::uint64_t value);
  /// Remove a key; returns its value or nullopt.
  sim::Task<std::optional<std::uint64_t>> erase(sim::ThreadContext& tc,
                                                std::uint64_t key);

  /// Host-side (zero simulated cycles) insert for build-time preloading.
  /// Must not race with simulated accesses; call before Simulator::run().
  void preload(mem::BackingStore& bs, std::uint64_t key, std::uint64_t value);

  /// Host-side lookup for post-run verification. `load` must follow any
  /// live redirection (use Simulator::read_word_resolved).
  using WordLoader = std::function<std::uint64_t(Addr)>;
  std::optional<std::uint64_t> peek(const WordLoader& load,
                                    std::uint64_t key) const;

  std::uint64_t buckets() const { return buckets_; }

 private:
  Addr bucket_addr(std::uint64_t key) const;
  static constexpr std::uint64_t kKeyOff = 0;
  static constexpr std::uint64_t kValOff = 8;
  static constexpr std::uint64_t kNextOff = 16;

  Addr buckets_base_ = 0;
  std::uint64_t buckets_ = 0;
  std::uint64_t bucket_stride_ = kWordBytes;
  PerThreadArena arena_;
};

/// Bounded FIFO ring buffer. head/tail counters live on separate lines but
/// are deliberately shared hot words (the intruder-style contention point).
class SimQueue {
 public:
  SimQueue() = default;
  SimQueue(SimAllocator& alloc, std::uint64_t capacity);

  /// Returns false if full.
  sim::Task<bool> push(sim::ThreadContext& tc, std::uint64_t value);
  /// Pops the oldest value, or nullopt if empty.
  sim::Task<std::optional<std::uint64_t>> pop(sim::ThreadContext& tc);

  /// Host-side build-time fill; call before Simulator::run().
  void preload(mem::BackingStore& bs,
               const std::vector<std::uint64_t>& values);

 private:
  Addr head_addr_ = 0;  // next index to pop
  Addr tail_addr_ = 0;  // next index to push
  Addr slots_ = 0;
  std::uint64_t capacity_ = 0;
};

/// Sorted singly-linked list with a sentinel head (genome-style chaining).
class SimSortedList {
 public:
  SimSortedList() = default;
  SimSortedList(SimAllocator& alloc, std::uint64_t nodes_per_thread,
                std::uint32_t threads);

  /// Insert key if absent; returns false if already present.
  sim::Task<bool> insert(sim::ThreadContext& tc, std::uint64_t key);
  sim::Task<bool> contains(sim::ThreadContext& tc, std::uint64_t key);

 private:
  static constexpr std::uint64_t kKeyOff = 0;
  static constexpr std::uint64_t kNextOff = 8;
  Addr head_ = 0;  // sentinel node
  SimArena sentinel_;
  PerThreadArena arena_;
};

}  // namespace suvtm::stamp
