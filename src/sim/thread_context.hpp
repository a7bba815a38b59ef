// ThreadContext: the per-core bridge between workload coroutines and the
// simulator. Every awaitable here suspends the calling coroutine on the
// event scheduler and resumes it when the simulated operation completes.
//
// Abort contract: the coroutine that issues the outermost tx_begin is the
// transaction's root (atomically()'s frame). When an attempt aborts, the
// rollback's completion event resumes the root -- not the awaiter that hit
// the abort -- with abort_pending() set. The root sees whatever it was
// awaiting return (a meaningless value), and destroying that awaited Task
// destroys every nested frame of the attempt. The root must call
// take_abort() before its next operation; any operation issued while an
// abort is pending throws check::CheckFailure.
#pragma once

#include <coroutine>
#include <cstdint>
#include <utility>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/obs.hpp"
#include "sim/barrier.hpp"
#include "sim/breakdown.hpp"
#include "sim/config.hpp"
#include "sim/task.hpp"

namespace suvtm::check {
class Checker;
}
namespace suvtm::htm {
class HtmSystem;
struct Txn;
}
namespace suvtm::mem {
class MemorySystem;
}

namespace suvtm::sim {

class Scheduler;
struct RemotePort;

class ThreadContext {
 public:
  /// `port` is non-null only on a sharded machine (sim/shard.hpp): it lets
  /// this core route non-transactional loads of foreign-shard addresses
  /// through the window-boundary mailboxes.
  ThreadContext(CoreId core, const SimConfig& cfg, Scheduler& sched,
                mem::MemorySystem& mem, htm::HtmSystem& htm,
                Breakdown& breakdown, std::uint64_t rng_seed,
                check::Checker* checker = nullptr,
                obs::Recorder* obs = nullptr,
                const RemotePort* port = nullptr);

  // ---- awaitables ----------------------------------------------------------

  struct MemAwaiter {
    ThreadContext& tc;
    Addr addr;
    std::uint64_t store_value;
    bool is_store;
    bool rmw = false;  // load with store intent (exclusive permission)
    std::uint64_t value = 0;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { tc.issue_mem(*this, h); }
    std::uint64_t await_resume() const noexcept { return value; }
  };

  struct BeginAwaiter {
    ThreadContext& tc;
    std::uint32_t site;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { tc.issue_begin(*this, h); }
    void await_resume() const noexcept {}
  };

  struct CommitAwaiter {
    ThreadContext& tc;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { tc.issue_commit(h); }
    void await_resume() const noexcept {}
  };

  struct ComputeAwaiter {
    ThreadContext& tc;
    Cycle cycles;
    bool await_ready() const noexcept { return cycles == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      tc.issue_compute(*this, h);
    }
    void await_resume() const noexcept {}
  };

  struct BackoffAwaiter {
    ThreadContext& tc;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { tc.issue_backoff(*this, h); }
    void await_resume() const noexcept {}
  };

  struct RollbackInnerAwaiter {
    ThreadContext& tc;
    bool rolled_back = false;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      tc.issue_rollback_inner(*this, h);
    }
    bool await_resume() const noexcept { return rolled_back; }
  };

  struct BarrierAwaiter {
    ThreadContext& tc;
    Barrier::Waiter inner;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) { return inner.await_suspend(h); }
    void await_resume() const {
      tc.breakdown_.add(Bucket::kBarrier, inner.await_resume());
    }
  };

  /// Load the 64-bit word at `a` (transactional when inside tx()).
  MemAwaiter load(Addr a) { return {*this, a, 0, false}; }
  /// Load with store intent: takes exclusive coherence permission up front,
  /// the way compiled read-modify-write sequences do. Avoids the classic
  /// read-then-upgrade deadlock on hot words (queue heads, counters).
  MemAwaiter load_rmw(Addr a) { return {*this, a, 0, false, true}; }
  /// Store `v` to the 64-bit word at `a`.
  MemAwaiter store(Addr a, std::uint64_t v) { return {*this, a, v, true}; }
  /// Begin a transaction at static site `site` (nesting supported). The
  /// outermost begin makes the calling coroutine the transaction's root:
  /// it must stay suspended inside the transaction until it ends, and it
  /// must call take_abort() after every operation that may abort.
  BeginAwaiter tx_begin(std::uint32_t site = 0) { return {*this, site}; }
  /// Commit the innermost transaction.
  CommitAwaiter tx_commit() { return {*this}; }
  /// Burn `n` cycles of non-memory work.
  ComputeAwaiter compute(Cycle n) { return {*this, n}; }
  /// Post-abort randomized exponential backoff.
  BackoffAwaiter backoff() { return {*this}; }
  /// Partially abort the innermost nested frame (paper Section IV-C closed
  /// nesting): the frame's version state rolls back and the frame is
  /// popped, leaving the outer transaction running. Returns true on a
  /// partial rollback. If the scheme cannot partially abort (DynTM lazy
  /// mode) or the transaction is already doomed, the whole transaction
  /// aborts instead and the root restarts it. Must be called at depth > 1.
  RollbackInnerAwaiter tx_rollback_inner() { return {*this}; }
  /// Wait at `b`; time is charged to the Barrier bucket.
  BarrierAwaiter barrier(Barrier& b) {
    guard_no_pending_abort();
    return {*this, b.arrive()};
  }

  /// True while an aborted attempt's root has not yet called take_abort().
  bool abort_pending() const { return abort_pending_; }
  /// Consume a pending abort: true if the root's transaction attempt was
  /// aborted (and must be retried), false if it is still live or committed.
  bool take_abort() { return std::exchange(abort_pending_, false); }

  CoreId core() const { return core_; }
  bool in_tx() const;
  Rng& rng() { return rng_; }
  Breakdown& breakdown() { return breakdown_; }

 private:
  friend struct MemAwaiter;
  friend struct BeginAwaiter;
  friend struct CommitAwaiter;
  friend struct ComputeAwaiter;
  friend struct BackoffAwaiter;
  friend struct RollbackInnerAwaiter;

  htm::Txn& txn();

  void issue_mem(MemAwaiter& aw, std::coroutine_handle<> h);
  /// Foreign-shard access: post a RemoteMsg to the owner's mailbox (the
  /// merger replies at the next window boundary). Throws check::CheckFailure
  /// for anything but a non-transactional load -- the sharded-machine
  /// purity contract (sim/config.hpp PdesParams).
  void issue_remote(MemAwaiter& aw, std::coroutine_handle<> h,
                    std::uint32_t owner);
  void issue_begin(BeginAwaiter& aw, std::coroutine_handle<> h);
  void issue_commit(std::coroutine_handle<> h);
  void issue_compute(ComputeAwaiter& aw, std::coroutine_handle<> h);
  void issue_backoff(BackoffAwaiter& aw, std::coroutine_handle<> h);
  void issue_rollback_inner(RollbackInnerAwaiter& aw,
                            std::coroutine_handle<> h);

  /// Enter kAborting, pay the version manager's rollback cost while
  /// isolation is still held, then set the pending abort and resume the
  /// transaction's root frame.
  void start_abort();

  /// Throws check::CheckFailure if an abort is pending: the root skipped
  /// take_abort() and would otherwise run on non-transactionally.
  void guard_no_pending_abort() const;

  CoreId core_;
  const SimConfig& cfg_;
  Scheduler& sched_;
  mem::MemorySystem& mem_;
  htm::HtmSystem& htm_;
  Breakdown& breakdown_;
  AttemptAccount attempt_;
  Rng rng_;
  check::Checker* checker_;  // nullptr unless correctness checking is on
  obs::Recorder* obs_;       // nullptr unless tracing/metrics is on
  const RemotePort* port_;   // nullptr unless the machine is sharded
  std::coroutine_handle<> root_{};  // outermost tx_begin's caller, or null
  bool abort_pending_ = false;
};

}  // namespace suvtm::sim
