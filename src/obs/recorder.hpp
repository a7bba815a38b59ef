// Recorder: the per-Simulator observability hub every SUVTM_OBS_HOOK calls
// into. Owns one Tracer and one Metrics registry, reads its domain
// scheduler's clock (structures like the conflict manager and the redirect
// table have no clock of their own), and samples the occupancy gauges on a
// grid of simulated cycles. One Recorder per Simulator keeps parallel
// experiment runs fully isolated, which is what makes traces
// submission-order deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "htm/abort_cause.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/config.hpp"
#include "sim/scheduler.hpp"

namespace suvtm::obs {

class Recorder {
 public:
  /// `clock` is the scheduler of the domain this recorder observes; it
  /// must outlive the recorder.
  Recorder(const sim::ObsParams& params, std::uint32_t num_cores,
           const sim::Scheduler& clock);

  bool tracing() const { return trace_on_; }
  bool trace_mem() const { return trace_mem_; }
  /// The cycle of the event being dispatched: what clockless structures'
  /// instants are stamped with.
  Cycle now() const { return clock_.now(); }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  const TraceData& trace() const { return tracer_.data(); }
  TraceData take_trace() { return tracer_.take(); }

  /// The occupancy grid: gauges are sampled at every multiple of this many
  /// simulated cycles.
  static constexpr Cycle kSamplePeriodCycles = 8192;

  /// Gauge sampler, invoked once per grid cycle with that cycle. Installed
  /// by the Simulator (it knows which structures exist).
  using Sampler = std::function<void(Metrics&, Cycle)>;
  void set_sampler(Sampler s) { sampler_ = std::move(s); }

  // ---- sim/scheduler ------------------------------------------------------
  /// Cycle `t` is about to dispatch (one call per drained cycle, in time
  /// order): take one sample for each grid cycle passed since the last
  /// call, stamped with that grid cycle. State changes only while a cycle
  /// dispatches, so in a serial run each sample is exactly the state at
  /// the start of its grid cycle.
  void on_cycle(Cycle t) {
    if (t >= next_sample_) [[unlikely]] sample_through(t);
  }

  // ---- sim/thread_context: txn lifecycle ----------------------------------
  void on_txn_begin(CoreId c, Cycle t, std::uint32_t site,
                    std::uint64_t attempt);
  void on_commit_window(CoreId c, Cycle t, Cycle window);
  void on_txn_commit(CoreId c, Cycle t, std::uint64_t write_lines);
  void on_abort_window(CoreId c, Cycle t, Cycle window, htm::AbortCause cause);
  void on_txn_abort(CoreId c, Cycle t);
  void on_stall(CoreId c, Cycle t, CoreId holder, LineAddr line, Cycle wait);
  /// `n` parked NACK retries settled at once. Each would have been an
  /// on_stall() inside the stall span its first NACK opened, which only
  /// counts.
  void on_parked_stalls(CoreId /*c*/, std::uint64_t n) {
    metrics_.add(Counter::kStallRetries, n);
  }
  void on_access_granted(CoreId c, Cycle t) {
    if (cores_[c].stall_open) close_stall(c, t);
  }
  void on_backoff(CoreId c, Cycle t, Cycle wait);

  // ---- htm/htm_system -----------------------------------------------------
  void on_suspend(CoreId c);
  void on_resume(CoreId c);

  // ---- htm/conflict_manager, vm/dyntm: conflict edges ---------------------
  void on_conflict_edge(CoreId aborter, CoreId victim, LineAddr line,
                        std::uint32_t victim_site, htm::AbortCause cause);

  // ---- vm schemes ---------------------------------------------------------
  void on_degeneration(CoreId c);
  void on_undo_walk(std::uint64_t entries);
  void on_suv_flash(CoreId c, bool commit, std::uint64_t entries);

  // ---- suv structures -----------------------------------------------------
  void on_table_spill(LineAddr line, CoreId owner);
  void on_table_l1_overflow();
  void on_pool_page(CoreId owner);
  /// `n` summaries took (or dropped) one line; `stale`: it still tests
  /// positive in them afterwards.
  void on_summary_add(std::uint64_t n = 1);
  void on_summary_remove(bool stale, std::uint64_t n = 1);

  // ---- mem ----------------------------------------------------------------
  void on_l1_miss(CoreId c, Cycle t, LineAddr line, Cycle latency,
                  bool l2_hit);
  void on_dir_forward(CoreId requester, CoreId owner, LineAddr line);
  void on_cache_evict(bool l2, LineAddr victim);
  void on_dir_drop();
  void on_spec_eviction(CoreId c, LineAddr line);

 private:
  void emit(const TraceEvent& e) {
    if (trace_on_) tracer_.emit(e);
  }
  void close_stall(CoreId c, Cycle t);
  void sample_through(Cycle t);

  /// Per-core open-span state; spans are emitted on close so the event log
  /// stays append-only.
  struct CoreSpans {
    Cycle txn_start = 0;
    std::uint32_t site = 0;
    std::uint32_t attempt = 0;
    htm::AbortCause pending_cause = htm::AbortCause::kNone;
    bool txn_open = false;
    Cycle stall_start = 0;
    CoreId stall_holder = kNoCore;
    LineAddr stall_line = 0;
    bool stall_open = false;
  };

  bool trace_on_ = false;
  bool trace_mem_ = false;
  Cycle next_sample_ = kSamplePeriodCycles;  // the next grid cycle
  const sim::Scheduler& clock_;
  Tracer tracer_;
  Metrics metrics_;
  std::vector<CoreSpans> cores_;
  Sampler sampler_;
};

}  // namespace suvtm::obs
