#include "obs/recorder.hpp"

namespace suvtm::obs {

namespace {

Counter counter_for_cause(htm::AbortCause cause) {
  // Counter::kAbortsDeadlock.. mirror AbortCause::kDeadlockCycle.. in order.
  const auto i = static_cast<std::uint32_t>(cause);
  if (i == 0 || i >= static_cast<std::uint32_t>(htm::AbortCause::kCauseCount)) {
    return Counter::kAbortsExplicit;
  }
  return static_cast<Counter>(
      static_cast<std::uint32_t>(Counter::kAbortsDeadlock) + i - 1);
}

}  // namespace

Recorder::Recorder(const sim::ObsParams& params, std::uint32_t num_cores,
                   const sim::Scheduler& clock)
    : trace_on_(params.trace), trace_mem_(params.trace_mem), clock_(clock),
      tracer_(params.max_trace_events), cores_(num_cores) {}

void Recorder::sample_through(Cycle t) {
  for (; next_sample_ <= t; next_sample_ += kSamplePeriodCycles) {
    if (sampler_) sampler_(metrics_, next_sample_);
  }
}

void Recorder::close_stall(CoreId c, Cycle t) {
  CoreSpans& s = cores_[c];
  s.stall_open = false;
  const Cycle dur = t - s.stall_start;
  metrics_.observe(Histogram::kStallCycles, dur);
  TraceEvent e;
  e.ts = s.stall_start;
  e.dur = dur;
  e.addr = s.stall_line;
  e.a = s.stall_holder;
  e.kind = EventKind::kStallSpan;
  e.core = c;
  emit(e);
}

void Recorder::on_txn_begin(CoreId c, Cycle t, std::uint32_t site,
                            std::uint64_t attempt) {
  CoreSpans& s = cores_[c];
  if (s.stall_open) close_stall(c, t);
  s.txn_open = true;
  s.txn_start = t;
  s.site = site;
  s.attempt = static_cast<std::uint32_t>(attempt);
  s.pending_cause = htm::AbortCause::kNone;
}

void Recorder::on_commit_window(CoreId c, Cycle t, Cycle window) {
  if (cores_[c].stall_open) close_stall(c, t);
  TraceEvent e;
  e.ts = t;
  e.dur = window;
  e.kind = EventKind::kCommitWindow;
  e.core = c;
  emit(e);
}

void Recorder::on_txn_commit(CoreId c, Cycle t, std::uint64_t write_lines) {
  CoreSpans& s = cores_[c];
  metrics_.observe(Histogram::kLinesPerCommit, write_lines);
  if (!s.txn_open) return;
  s.txn_open = false;
  metrics_.observe(Histogram::kCommittedTxnCycles, t - s.txn_start);
  TraceEvent e;
  e.ts = s.txn_start;
  e.dur = t - s.txn_start;
  e.a = s.site;
  e.b = s.attempt;
  e.kind = EventKind::kTxnSpan;
  e.cause = static_cast<std::uint8_t>(htm::AbortCause::kNone);
  e.core = c;
  emit(e);
}

void Recorder::on_abort_window(CoreId c, Cycle t, Cycle window,
                               htm::AbortCause cause) {
  CoreSpans& s = cores_[c];
  if (s.stall_open) close_stall(c, t);
  s.pending_cause = cause;
  metrics_.add(counter_for_cause(cause));
  metrics_.observe(Histogram::kAbortCause, static_cast<std::uint64_t>(cause));
  TraceEvent e;
  e.ts = t;
  e.dur = window;
  e.kind = EventKind::kAbortWindow;
  e.cause = static_cast<std::uint8_t>(cause);
  e.core = c;
  emit(e);
}

void Recorder::on_txn_abort(CoreId c, Cycle t) {
  CoreSpans& s = cores_[c];
  if (!s.txn_open) return;
  s.txn_open = false;
  metrics_.observe(Histogram::kAbortedTxnCycles, t - s.txn_start);
  TraceEvent e;
  e.ts = s.txn_start;
  e.dur = t - s.txn_start;
  e.a = s.site;
  e.b = s.attempt;
  e.kind = EventKind::kTxnSpan;
  e.cause = static_cast<std::uint8_t>(s.pending_cause);
  e.core = c;
  emit(e);
}

void Recorder::on_stall(CoreId c, Cycle t, CoreId holder, LineAddr line,
                        Cycle /*wait*/) {
  metrics_.add(Counter::kStallRetries);
  CoreSpans& s = cores_[c];
  if (!s.stall_open) {
    s.stall_open = true;
    s.stall_start = t;
    s.stall_holder = holder;
    s.stall_line = line;
  }
}

void Recorder::on_backoff(CoreId c, Cycle t, Cycle wait) {
  metrics_.observe(Histogram::kBackoffCycles, wait);
  TraceEvent e;
  e.ts = t;
  e.dur = wait;
  e.kind = EventKind::kBackoffSpan;
  e.core = c;
  emit(e);
}

void Recorder::on_suspend(CoreId c) {
  metrics_.add(Counter::kSuspends);
  TraceEvent e;
  e.ts = now();
  e.kind = EventKind::kSuspend;
  e.core = c;
  emit(e);
}

void Recorder::on_resume(CoreId c) {
  metrics_.add(Counter::kResumes);
  TraceEvent e;
  e.ts = now();
  e.kind = EventKind::kResume;
  e.core = c;
  emit(e);
}

void Recorder::on_conflict_edge(CoreId aborter, CoreId victim, LineAddr line,
                                std::uint32_t victim_site,
                                htm::AbortCause cause) {
  metrics_.add(Counter::kConflictEdges);
  TraceEvent e;
  e.ts = now();
  e.addr = line;
  e.a = victim;
  e.b = victim_site;
  e.kind = EventKind::kAbortEdge;
  e.cause = static_cast<std::uint8_t>(cause);
  e.core = aborter;
  emit(e);
}

void Recorder::on_degeneration(CoreId c) {
  metrics_.add(Counter::kDegenerations);
  TraceEvent e;
  e.ts = now();
  e.kind = EventKind::kDegeneration;
  e.core = c;
  emit(e);
}

void Recorder::on_undo_walk(std::uint64_t entries) {
  metrics_.add(Counter::kUndoWalks);
  metrics_.observe(Histogram::kUndoEntriesAtAbort, entries);
}

void Recorder::on_suv_flash(CoreId /*c*/, bool commit,
                            std::uint64_t /*entries*/) {
  metrics_.add(commit ? Counter::kSuvFlashCommits : Counter::kSuvFlashAborts);
}

void Recorder::on_table_spill(LineAddr line, CoreId owner) {
  metrics_.add(Counter::kTableSpills);
  TraceEvent e;
  e.ts = now();
  e.addr = line;
  e.kind = EventKind::kTableSpill;
  e.core = owner;
  emit(e);
}

void Recorder::on_table_l1_overflow() {
  metrics_.add(Counter::kTableL1Overflows);
}

void Recorder::on_pool_page(CoreId owner) {
  metrics_.add(Counter::kPoolPages);
  TraceEvent e;
  e.ts = now();
  e.kind = EventKind::kPoolPage;
  e.core = owner;
  emit(e);
}

void Recorder::on_summary_add(std::uint64_t n) {
  metrics_.add(Counter::kSummaryAdds, n);
}

void Recorder::on_summary_remove(bool stale, std::uint64_t n) {
  metrics_.add(Counter::kSummaryRemoves, n);
  if (stale) metrics_.add(Counter::kSummaryStaleRemoves, n);
}

void Recorder::on_l1_miss(CoreId c, Cycle t, LineAddr line, Cycle latency,
                          bool l2_hit) {
  metrics_.observe(Histogram::kMissLatency, latency);
  if (!trace_mem_) return;
  TraceEvent e;
  e.ts = t;
  e.addr = line;
  e.a = static_cast<std::uint32_t>(latency);
  e.b = l2_hit ? 1 : 0;
  e.kind = EventKind::kL1Miss;
  e.core = c;
  emit(e);
}

void Recorder::on_dir_forward(CoreId requester, CoreId owner, LineAddr line) {
  metrics_.add(Counter::kDirForwards);
  if (!trace_mem_) return;
  TraceEvent e;
  e.ts = now();
  e.addr = line;
  e.a = owner;
  e.kind = EventKind::kDirForward;
  e.core = requester;
  emit(e);
}

void Recorder::on_cache_evict(bool l2, LineAddr /*victim*/) {
  metrics_.add(l2 ? Counter::kL2Evictions : Counter::kL1Evictions);
}

void Recorder::on_dir_drop() { metrics_.add(Counter::kDirEntriesDropped); }

void Recorder::on_spec_eviction(CoreId c, LineAddr line) {
  metrics_.add(Counter::kSpecEvictions);
  TraceEvent e;
  e.ts = now();
  e.addr = line;
  e.kind = EventKind::kSpecEviction;
  e.core = c;
  emit(e);
}

}  // namespace suvtm::obs
