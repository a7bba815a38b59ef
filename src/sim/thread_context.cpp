#include "sim/thread_context.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "check/check.hpp"
#include "htm/htm_system.hpp"
#include "obs/recorder.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"

namespace suvtm::sim {

ThreadContext::ThreadContext(CoreId core, Scheduler& sched,
                             mem::MemorySystem& mem, htm::HtmSystem& htm,
                             Breakdown& breakdown, std::uint64_t rng_seed,
                             check::Checker* checker, obs::Recorder* obs,
                             const RemotePort* port)
    : core_(core), sched_(sched), mem_(mem), htm_(htm),
      txn_(&htm.txn(core)), breakdown_(breakdown), rng_(rng_seed),
      checker_(checker), obs_(obs), port_(port) {
  sched.set_park_interval(kStallRetryInterval);
  htm.conflicts().enable_parking(core, &park);
}

bool ThreadContext::in_tx() const {
  return txn_->state == htm::TxnState::kRunning;
}

void ThreadContext::throw_pending_abort() const {
  throw check::CheckFailure(
      "core " + std::to_string(core_) +
      " issued an operation while an abort is pending: the transaction "
      "root must call take_abort() after an attempt that may abort");
}

void ThreadContext::arm_wake(WakeKind kind, Cycle delay, MemAwaiter* aw,
                             std::coroutine_handle<> h) {
  assert(wake_kind_ == WakeKind::kNone &&
         "a core waits on one operation at a time");
  wake_kind_ = kind;
  wake_aw_ = aw;
  wake_h_ = h;
  sched_.wake_after(delay, *this);
}

void ThreadContext::settle_parked() {
  const std::uint64_t n = park.take_skipped();
  if (n == 0) return;
  htm::ConflictManager& cm = htm_.conflicts();
  cm.settle_parked(core_, n);
  const Cycle w = n * kStallRetryInterval;
  if (cm.park_memo(core_).requester_tx) attempt_.add_stalled(w);
  else breakdown_.add(Bucket::kNoTrans, w);
  SUVTM_OBS_HOOK(obs_, on_parked_stalls(core_, n));
}

void ThreadContext::on_wake() {
  // Free the slot first: every handler below may arm the next wake.
  switch (std::exchange(wake_kind_, WakeKind::kNone)) {
    case WakeKind::kMemRetry:
      settle_parked();
      issue_mem(*wake_aw_, wake_h_);
      return;
    case WakeKind::kCommitRetry:
      issue_commit(wake_h_);
      return;
    case WakeKind::kCommitDone:
      finish_commit(wake_h_);
      return;
    case WakeKind::kAbortDone:
      finish_abort();
      return;
    case WakeKind::kNone:
      break;
  }
  assert(false && "wake event fired with an empty slot");
}

void ThreadContext::start_abort() {
  htm::Txn& t = txn();
  assert(t.active());
  t.state = htm::TxnState::kAborting;
  htm_.conflicts().left_running(t);
  // Undoomed paths reaching here are the nested-rollback fallback (partial
  // abort unsupported): tag them so the abort-cause attribution stays total.
  if (!t.doomed) t.doom_cause = htm::AbortCause::kNestingFallback;
  // An aborting transaction is not waiting on anyone: drop its wait-for
  // edge now so rollback time cannot fabricate phantom deadlock cycles.
  htm_.conflicts().clear_wait(core_);
  const Cycle cost = htm_.vm().abort_cost(t);
  breakdown_.add(Bucket::kAborting, cost);
  attempt_.settle_abort(breakdown_);
  ++htm_.stats().aborts;
  SUVTM_OBS_HOOK(obs_,
                 on_abort_window(core_, sched_.now(), cost, t.doom_cause));
  arm_wake(WakeKind::kAbortDone, cost, nullptr, nullptr);
}

void ThreadContext::finish_abort() {
  htm::Txn& t = txn();
  if (t.overflowed) ++htm_.stats().overflowed_attempts;
  htm_.vm().on_abort_done(t);
  SUVTM_CHECK_HOOK(checker_, on_abort_done(core_));
  SUVTM_OBS_HOOK(obs_, on_txn_abort(core_, sched_.now()));
  htm_.conflicts().clear_wait(core_);
  t.reset_attempt();  // timestamp survives: progress guarantee
  htm_.conflicts().set_isolation(core_, false);
  // Unwind by resuming the root: destroying the Task it awaits destroys
  // every nested frame of the attempt, all inside this one event.
  assert(root_ && "abort completed with no transaction root frame");
  abort_pending_ = true;
  std::exchange(root_, nullptr).resume();
}

void ThreadContext::issue_remote(MemAwaiter& aw, std::coroutine_handle<> h,
                                 std::uint32_t owner) {
  // The sharded-machine purity contract (sim/config.hpp PdesParams):
  // transactions, stores and RMWs stay shard-local; only non-transactional
  // loads may cross shards. Violations throw unconditionally -- a workload
  // declared for a sharded machine that breaks the contract would otherwise
  // silently read/write the wrong domain's memory image.
  if (in_tx() || aw.is_store || aw.rmw) {
    throw check::CheckFailure(
        "sharded-machine purity violation: only non-transactional loads may "
        "cross shards (core accessed a foreign shard's address from a "
        "transaction, store, or RMW)");
  }
  RemoteMsg m{core_, aw.addr, sched_.now(), h, &aw};
  port_->boxes->post(port_->shard, owner, m);
}

void ThreadContext::issue_mem(MemAwaiter& aw, std::coroutine_handle<> h) {
  guard_no_pending_abort();
  if (port_ != nullptr) [[unlikely]] {
    const std::uint32_t owner = port_->map->shard_of_addr(aw.addr);
    if (owner != port_->shard) {
      issue_remote(aw, h, owner);
      return;
    }
  }

  htm::Txn& t = txn();
  const bool tx = t.state == htm::TxnState::kRunning;

  if (tx && t.doomed) {
    start_abort();
    return;
  }

  const LineAddr line = line_of(aw.addr);
  const bool lazy = tx && t.lazy;
  const bool exclusive = aw.is_store || aw.rmw;
  auto dec = htm_.conflicts().check(core_, line, exclusive, lazy,
                                    htm_.txn_view());
  if (dec.victim != kNoCore && dec.victim != core_) {
    htm_.doom(dec.victim, dec.victim_cause);
  }
  for (std::uint64_t m = dec.invalidated_lazy_readers; m != 0; m &= m - 1) {
    htm_.doom(static_cast<CoreId>(std::countr_zero(m)),
              htm::AbortCause::kLazyInvalidated);
  }
  if (dec.action == htm::ConflictManager::Action::kAbortSelf) {
    htm_.doom(core_, dec.victim_cause);
    start_abort();
    return;
  }
  if (dec.action == htm::ConflictManager::Action::kStall) {
    const Cycle w = kStallRetryInterval;
    if (tx) attempt_.add_stalled(w);
    else breakdown_.add(Bucket::kNoTrans, w);
    SUVTM_OBS_HOOK(obs_, on_stall(core_, sched_.now(), dec.holder, line, w));
    arm_wake(WakeKind::kMemRetry, w, &aw, h);
    return;
  }

  // Access granted: version-management bookkeeping, then the timed access.
  SUVTM_CHECK_HOOK(checker_,
                   on_access_granted(core_, line, exclusive, lazy));
  SUVTM_OBS_HOOK(obs_, on_access_granted(core_, sched_.now()));
  [[maybe_unused]] const Addr word =
      aw.addr & ~static_cast<Addr>(kWordBytes - 1);
  auto& vm = htm_.vm();
  Cycle extra = 0;
  Cycle extra_if_l1_hit = 0;
  Addr target = aw.addr;
  bool buffered_store = false;

  if (tx) {
    if (aw.is_store) {
      // The version manager sees the store *before* the write-set update so
      // it can distinguish the first store to a line (FasTM's old-line
      // writeback, SUV's entry allocation).
      const htm::StoreAction act = vm.on_tx_store(t, aw.addr);
      htm_.note_write(t, line);
      target = act.target;
      extra = act.extra;
      extra_if_l1_hit = act.extra_if_l1_hit;
      buffered_store = act.buffered;
    } else {
      htm_.note_read(t, line);
      // An RMW claims exclusive ownership now; the upcoming store to this
      // line will not need a second coherence round or an upgrade.
      if (aw.rmw) htm_.note_write(t, line);
      const htm::LoadAction act = vm.resolve_load(core_, &t, aw.addr);
      if (act.buffered) {
        // Served from the lazy redo buffer: an L1-speed private access.
        aw.value = *act.buffered;
        SUVTM_CHECK_HOOK(checker_,
                         on_read(core_, true, word, aw.value, sched_.now()));
        const Cycle lat = mem::MemorySystem::kL1Latency + act.extra;
        attempt_.add_trans(lat);
        sched_.resume_after(lat, h);
        return;
      }
      target = act.target;
      extra = act.extra;
      extra_if_l1_hit = act.extra_if_l1_hit;
    }
  } else {
    const htm::LoadAction act = vm.resolve_load(core_, nullptr, aw.addr);
    target = act.target;
    extra = act.extra;
    extra_if_l1_hit = act.extra_if_l1_hit;
  }

  if (buffered_store) {
    t.redo[aw.addr] = aw.store_value;
    SUVTM_CHECK_HOOK(
        checker_, on_write(core_, true, word, aw.store_value, sched_.now()));
    const Cycle lat = mem::MemorySystem::kL1Latency + extra;
    attempt_.add_trans(lat);
    sched_.resume_after(lat, h);
    return;
  }

  const mem::AccessOutcome out =
      mem_.access(core_, target, aw.is_store || aw.rmw);
  if (out.evicted_speculative && t.active()) {
    t.overflowed = true;
    vm.on_spec_eviction(t, out.evicted_line);
    SUVTM_OBS_HOOK(obs_, on_spec_eviction(core_, out.evicted_line));
  }

  if (aw.is_store) {
    mem_.store_word(target, aw.store_value);
    if (tx) mem_.mark_speculative(core_, line_of(target));
    SUVTM_CHECK_HOOK(
        checker_, on_write(core_, tx, word, aw.store_value, sched_.now()));
  } else {
    aw.value = mem_.load_word(target);
    SUVTM_CHECK_HOOK(checker_,
                     on_read(core_, tx, word, aw.value, sched_.now()));
  }

  // Table-probe cycles ride the coherence request on a data-cache miss
  // (SUV piggybacks redirection resolution); they only cost time on a hit.
  const Cycle lat = out.latency + extra + (out.l1_hit ? extra_if_l1_hit : 0);
  if (tx) attempt_.add_trans(lat);
  else breakdown_.add(Bucket::kNoTrans, lat);
  sched_.resume_after(lat, h);
}

void ThreadContext::issue_begin(BeginAwaiter& aw, std::coroutine_handle<> h) {
  guard_no_pending_abort();
  htm::Txn& t = txn();
  if (t.state == htm::TxnState::kRunning) {
    // Closed nesting: push a frame recording the scheme's rollback mark.
    t.frames.push_back({htm_.vm().nest_mark(t)});
    SUVTM_CHECK_HOOK(checker_, on_frame_push(core_));
    ++htm_.stats().nested_begins;
    attempt_.add_trans(kCheckpointLatency);
    sched_.resume_after(kCheckpointLatency, h);
    return;
  }
  assert(t.state == htm::TxnState::kIdle);
  root_ = h;
  t.state = htm::TxnState::kRunning;
  htm_.conflicts().set_isolation(core_, true);
  t.site = aw.site;
  if (!t.has_timestamp) {
    t.timestamp = (sched_.now() << 5) | core_;
    t.has_timestamp = true;
  }
  ++t.attempts;
  ++htm_.stats().begins;
  SUVTM_CHECK_HOOK(checker_, on_begin(core_, sched_.now()));
  SUVTM_OBS_HOOK(obs_, on_txn_begin(core_, sched_.now(), t.site, t.attempts));
  const Cycle cost = kCheckpointLatency + htm_.vm().on_begin(t);
  attempt_.add_trans(cost);
  sched_.resume_after(cost, h);
}

void ThreadContext::issue_commit(std::coroutine_handle<> h) {
  guard_no_pending_abort();
  htm::Txn& t = txn();
  assert(t.state == htm::TxnState::kRunning && "commit outside a transaction");

  if (t.doomed) {
    start_abort();
    return;
  }
  if (!t.frames.empty()) {
    // Closed-nested commit: merge into the parent (keep signatures/log).
    t.frames.pop_back();
    SUVTM_CHECK_HOOK(checker_, on_frame_pop(core_));
    attempt_.add_trans(1);
    sched_.resume_after(1, h);
    return;
  }
  if (t.lazy && !htm_.acquire_commit_token(core_)) {
    // Commit arbitration: one lazy committer at a time.
    const Cycle w = kStallRetryInterval;
    breakdown_.add(Bucket::kCommitting, w);
    arm_wake(WakeKind::kCommitRetry, w, nullptr, h);
    return;
  }
  if (!htm_.vm().commit_ready(t)) {
    // Lazy committer waiting out eager owners of its write set.
    if (t.lazy) htm_.release_commit_token(core_);
    const Cycle w = kStallRetryInterval;
    breakdown_.add(Bucket::kCommitting, w);
    arm_wake(WakeKind::kCommitRetry, w, nullptr, h);
    return;
  }

  t.state = htm::TxnState::kCommitting;
  htm_.conflicts().left_running(t);
  htm_.conflicts().clear_wait(core_);  // a committer waits on no one
  SUVTM_CHECK_HOOK(checker_, on_commit_start(core_, sched_.now()));
  const Cycle cost = htm_.vm().commit_cost(t);
  breakdown_.add(Bucket::kCommitting, cost);
  SUVTM_OBS_HOOK(obs_, on_commit_window(core_, sched_.now(), cost));
  arm_wake(WakeKind::kCommitDone, cost, nullptr, h);
}

void ThreadContext::finish_commit(std::coroutine_handle<> h) {
  htm::Txn& t = txn();
  if (t.overflowed) ++htm_.stats().overflowed_attempts;
  htm_.vm().on_commit_done(t);
  SUVTM_CHECK_HOOK(checker_, on_commit_done(core_, sched_.now(), t.lazy));
  SUVTM_OBS_HOOK(obs_,
                 on_txn_commit(core_, sched_.now(), t.write_lines.size()));
  if (t.lazy) htm_.release_commit_token(core_);
  htm_.conflicts().clear_wait(core_);
  attempt_.settle_commit(breakdown_);
  t.reset_committed();
  htm_.conflicts().set_isolation(core_, false);
  ++htm_.stats().commits;
  root_ = nullptr;
  h.resume();
}

void ThreadContext::issue_rollback_inner(RollbackInnerAwaiter& aw,
                                         std::coroutine_handle<> h) {
  guard_no_pending_abort();
  htm::Txn& t = txn();
  assert(t.state == htm::TxnState::kRunning && !t.frames.empty() &&
         "tx_rollback_inner requires an open nested frame");
  if (t.doomed || !htm_.vm().supports_partial_abort(t)) {
    // Fall back to a full abort; the root restarts the transaction.
    start_abort();
    return;
  }
  const htm::NestFrame frame = t.frames.back();
  t.frames.pop_back();
  const Cycle cost = htm_.vm().partial_abort(t, frame.vm_mark);
  SUVTM_CHECK_HOOK(checker_, on_frame_rollback(core_));
  // The frame's work was wasted; the partial rollback holds isolation.
  breakdown_.add(Bucket::kAborting, cost);
  aw.rolled_back = true;
  sched_.resume_after(cost, h);
}

void ThreadContext::issue_compute(ComputeAwaiter& aw,
                                  std::coroutine_handle<> h) {
  guard_no_pending_abort();
  if (in_tx()) attempt_.add_trans(aw.cycles);
  else breakdown_.add(Bucket::kNoTrans, aw.cycles);
  sched_.resume_after(aw.cycles, h);
}

void ThreadContext::issue_backoff(BackoffAwaiter&, std::coroutine_handle<> h) {
  static_assert(kBackoffCap >= kBackoffBase, "the wait range is never empty");
  guard_no_pending_abort();
  const htm::Txn& t = txn();
  const unsigned shift =
      static_cast<unsigned>(std::min<std::uint64_t>(t.attempts, 10));
  const Cycle ceiling = std::min<Cycle>(kBackoffCap, kBackoffBase << shift);
  const Cycle wait = rng_.range(kBackoffBase, ceiling);
  breakdown_.add(Bucket::kBackoff, wait);
  SUVTM_OBS_HOOK(obs_, on_backoff(core_, sched_.now(), wait));
  sched_.resume_after(wait, h);
}

}  // namespace suvtm::sim
