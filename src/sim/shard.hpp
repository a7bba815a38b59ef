// Sharded conservative-PDES runtime (DESIGN.md section 14).
//
// A sharded machine (SimConfig::pdes.shards > 1) is partitioned into
// independent *domains*: shard s owns a contiguous block of simulated cores
// plus a complete vertical slice of the machine (its own scheduler wheel,
// L1s/L2/directory/backing store, conflict manager and version-management
// state). Domains share no mutable state, so each one can be simulated on
// its own host thread; the only cross-shard channel is the per-pair
// mailboxes below, which are written during a window by exactly one sender
// thread and drained by exactly one merger thread at the window barrier.
// Determinism is structural: a domain's event stream depends only on its
// own prior events plus the mailbox messages merged at boundaries, and the
// merge happens in fixed (receiver, sender, FIFO) order on one thread --
// so RunResult/trace/metrics bytes cannot depend on the host thread count.
#pragma once

#include <cstdint>
#include <exception>
#include <vector>

#include "common/types.hpp"
#include "sim/breakdown.hpp"
#include "sim/config.hpp"
#include "sim/scheduler.hpp"
#include "sim/thread_context.hpp"
#include "suv/pool.hpp"

namespace suvtm::htm {
class HtmSystem;
}
namespace suvtm::mem {
class MemorySystem;
}

namespace suvtm::sim {

/// Static shard geometry: which shard owns a core, and which shard owns an
/// address. Cores partition contiguously (shard = core / cores_per_shard);
/// the address space partitions by 4 GiB arena (shard s owns
/// [s << 32, (s+1) << 32); everything above the declared arenas -- and all
/// low addresses when shards == 1 -- belongs to shard 0). SUV preserved-pool
/// lines belong to the shard of the core whose pool region holds them, so a
/// shard's redirect targets are always shard-local by construction.
struct ShardMap {
  std::uint32_t shards = 1;
  std::uint32_t cores_per_shard = 1;

  static constexpr Addr kArenaShift = 32;

  std::uint32_t shard_of_core(CoreId c) const { return c / cores_per_shard; }

  std::uint32_t shard_of_addr(Addr a) const {
    if (a >= suv::kPoolRegionBase) [[unlikely]] {
      return shard_of_core(suv::PreservedPool::owner_of(line_of(a)));
    }
    const Addr arena = a >> kArenaShift;
    return arena < shards ? static_cast<std::uint32_t>(arena) : 0u;
  }

  /// Base of shard s's data arena (sharded workloads allocate inside it).
  static Addr arena_base(std::uint32_t shard) {
    return static_cast<Addr>(shard) << kArenaShift;
  }
};

/// One cross-shard request: a non-transactional read issued by `core`
/// against an address another shard owns. Posted by the sender's domain
/// thread during a window; executed against the owner's structures by the
/// merger at the next boundary; the reply resumes `h` on the sender's
/// scheduler with `aw->value` filled in.
struct RemoteMsg {
  CoreId core = kNoCore;
  Addr addr = 0;
  Cycle post_cycle = 0;  // sender-domain clock at the post
  std::coroutine_handle<> h{};
  ThreadContext::MemAwaiter* aw = nullptr;
};

/// Per-(sender, receiver) single-producer mailboxes. No locks, no atomics:
/// a box is written only by its sender's domain thread during a window and
/// read only by the merger thread at the barrier -- the window barrier
/// itself is the hand-off synchronization.
class Mailboxes {
 public:
  explicit Mailboxes(std::uint32_t shards)
      : shards_(shards), boxes_(static_cast<std::size_t>(shards) * shards) {}

  void post(std::uint32_t from, std::uint32_t to, const RemoteMsg& m) {
    boxes_[static_cast<std::size_t>(from) * shards_ + to].push_back(m);
  }
  std::vector<RemoteMsg>& box(std::uint32_t from, std::uint32_t to) {
    return boxes_[static_cast<std::size_t>(from) * shards_ + to];
  }
  std::uint32_t shards() const { return shards_; }

  bool all_empty() const {
    for (const auto& b : boxes_) {
      if (!b.empty()) return false;
    }
    return true;
  }

 private:
  std::uint32_t shards_ = 0;
  std::vector<std::vector<RemoteMsg>> boxes_;
};

/// The per-core view a ThreadContext needs to route foreign accesses: the
/// mailboxes, the geometry, and its home shard. Null port = monolithic
/// machine (the classic path; one never-taken pointer test per access).
struct RemotePort {
  Mailboxes* boxes = nullptr;
  const ShardMap* map = nullptr;
  std::uint32_t shard = 0;
};

/// One shard's vertical slice, as the runtime sees it.
struct DomainPort {
  Scheduler* sched = nullptr;
  mem::MemorySystem* mem = nullptr;
  htm::HtmSystem* htm = nullptr;
};

/// Host-side profile of one sharded run (DESIGN.md section 14): where the
/// window loop's wall time goes. The event counts are deterministic; the
/// host seconds vary run to run, which is why none of this is part of
/// runner::RunResult.
struct PdesProfile {
  std::uint32_t host_threads = 0;  // 0: the run was not sharded
  std::uint64_t windows = 0;       // window barriers crossed
  /// Scheduler events each domain processed.
  std::vector<std::uint64_t> domain_events;
  /// Host seconds each domain spent inside its Scheduler::run.
  std::vector<double> domain_busy_s;
  /// Host seconds each host thread spent in the window barrier (the thread
  /// that runs a boundary's merge counts that merge as waiting).
  std::vector<double> thread_wait_s;
  /// Host seconds spent merging mailboxes at the window boundaries.
  double merge_s = 0.0;
  /// Sum over windows of the slowest domain's busy seconds: the wall time
  /// of the domains' work with one host thread per domain and free
  /// barriers.
  double critical_path_s = 0.0;

  /// Total busy seconds over the critical path: the speedup that load
  /// imbalance alone allows with one host thread per domain.
  double imbalance_bound() const;
};

/// Conservative window loop: every domain runs its wheel up to the window
/// boundary on its host thread (domain d on thread d % host_threads), the
/// threads barrier, and one thread merges the mailboxes deterministically.
/// See shard.cpp for the merge and the timing model of remote reads.
class ShardRuntime {
 public:
  /// Default conservative window when cfg.pdes.window_cycles == 0.
  static constexpr Cycle kDefaultWindowCycles = 4096;

  /// `breakdowns` is the simulator's per-core breakdown array (indexed by
  /// global CoreId); the merger charges a requester's remote round trip
  /// there while its domain thread is parked at the barrier.
  ShardRuntime(const SimConfig& cfg, const ShardMap& map,
               std::vector<DomainPort> domains, Mailboxes& boxes,
               Breakdown* breakdowns);

  /// Run the window loop until every domain drains (returns true) or the
  /// cycle limit is exceeded with work still pending (returns false).
  /// Exceptions escaping a domain (checker failures, scheduler guards) are
  /// captured per-domain; call rethrow_domain_error() afterwards.
  bool run(Cycle max_cycles);

  /// Rethrow the lowest-numbered domain's captured exception, if any (the
  /// deterministic stand-in for the serial path's direct propagation).
  void rethrow_domain_error() const;

  Cycle window_cycles() const { return window_; }

  /// The host profile of the last run().
  const PdesProfile& profile() const { return profile_; }

  /// The effective synchronization quantum for `cfg`: the configured (or
  /// default 4096-cycle) window, floored by the mesh's minimum cross-shard
  /// hop latency so a boundary-merged message can never be delivered
  /// faster than one NoC hop.
  static Cycle effective_window(const SimConfig& cfg);

 private:
  /// The barrier's completion step: fold the window's busy times into the
  /// profile, then merge_boundary().
  void end_window();
  void merge_boundary();
  void process_remote(std::uint32_t to, const RemoteMsg& m);

  const SimConfig& cfg_;
  ShardMap map_;
  std::vector<DomainPort> domains_;
  Mailboxes& boxes_;
  Breakdown* breakdowns_;
  Cycle window_ = 0;
  Cycle boundary_ = 0;
  Cycle max_cycles_ = 0;
  bool done_ = false;
  bool overran_ = false;
  /// Requests NACKed by the owner's conflict check; reprocessed (in arrival
  /// order, before fresh mail) at each subsequent boundary.
  std::vector<std::vector<RemoteMsg>> retry_;
  std::vector<RemoteMsg> retry_scratch_;
  /// One-way NoC latency between shard home tiles, [from * shards + to].
  std::vector<Cycle> hop_;
  /// Per-domain captured exception; plain slots, synchronized by the
  /// window barrier (each is written before an arrive and read after).
  std::vector<std::exception_ptr> errors_;
  /// Each domain's busy seconds in the current window; written by its
  /// thread, folded into profile_ by end_window() (same barrier hand-off).
  std::vector<double> window_busy_s_;
  PdesProfile profile_;
};

}  // namespace suvtm::sim
