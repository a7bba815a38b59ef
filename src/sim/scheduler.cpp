#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "check/check.hpp"
#include "obs/recorder.hpp"

namespace suvtm::sim {

Scheduler::~Scheduler() {
  while (calls_ != nullptr) delete calls_;  // each record unlinks itself
}

void Scheduler::throw_scheduled_into_past(Cycle t) const {
  throw check::CheckFailure(
      "scheduler: event scheduled into the past (t=" + std::to_string(t) +
      " < now=" + std::to_string(now_) +
      "); the calendar queue would mis-bucket it a full window late");
}

void Scheduler::push_overflow(const Key& k) {
  overflow_.emplace_back();  // reserve the hole; sift_up fills it
  sift_up(overflow_.size() - 1, k);
}

void Scheduler::set_park_interval(Cycle interval) {
  assert(interval > 0 && "a parked wake re-arms a positive distance ahead");
  assert((interval_ == 0 || interval_ == interval) &&
         "one park interval per scheduler");
  if (interval_ != 0) return;
  interval_ = interval;
  lanes_.resize(interval);
  drain_seq_.resize(interval, DrainSeq{0, 0, 0});
}

bool Scheduler::run(Cycle limit) {
  // A new run: drains of earlier runs no longer tell a quiet cycle its seq
  // (pushes made between run() calls, such as PDES merges, come before
  // every wake this run dispatches).
  ++runs_;
  merge_ = kNoLane;
  struct InRun {
    bool& flag;
    explicit InRun(bool& f) : flag(f) { flag = true; }
    ~InRun() { flag = false; }
  } in_run(in_run_);

  while (pending_ > laned_) {
    if (window_count_ == 0) {
      // Every pending wheel event lives in the overflow level, beyond the
      // window: jump the window to the earliest overflow event and
      // re-bucket. The limit check comes first so an early return never
      // leaves window_start_ ahead of now_ (push() relies on that
      // invariant).
      const Cycle t0 = overflow_.front().t;
      if (t0 > limit) return stop(limit);
      window_start_ = t0;
      scan_t_ = t0;
      refill_window();
    }
    // Find the next populated cycle via the occupancy bitmap.
    // window_count_ > 0 guarantees a non-empty bucket at some t in
    // [scan_t_, window_start_ + kWheelSize); that range spans at most one
    // lap of the wheel, so circular bit order from scan_t_'s index is time
    // order and the index delta recovers the absolute cycle.
    const std::uint32_t idx0 = static_cast<std::uint32_t>(scan_t_ & kWheelMask);
    const std::uint32_t idx = next_occupied(idx0);
    scan_t_ += (idx - idx0) & kWheelMask;
    if (scan_t_ > limit) return stop(limit);

    // Batched same-cycle dispatch: drain the whole bucket. now_ advances
    // once, and the list walk picks up events appended *during* the drain
    // (an after(0) lands in this same bucket with a larger key, exactly the
    // heap's tie-break). Callbacks may grow other buckets/overflow freely;
    // this bucket only grows behind the running node.
    now_ = scan_t_;
    if (obs_ != nullptr) obs_->on_cycle(now_);
    std::uint64_t nodes = 0;
    std::uint32_t n = wheel_[idx].head;
    if (laned_ != 0) {
      const std::uint32_t p = phase(now_);
      drain_seq_[p] = DrainSeq{now_, seq_, runs_};
      if (!lanes_[p].entries.empty()) {
        open_lane(p);
        if (merge_pos_ == 0) n = merge_drain(idx, n, nodes);
      }
    }
    for (; n != kNil; ++nodes) n = dispatch_head(idx, n);
    clear_occupied(idx);
    if (merge_ != kNoLane) close_lane();
    events_ += nodes;
    pending_ -= nodes;
    window_count_ -= nodes;
    ++scan_t_;
  }
  // Only parked wakes left: nothing real happens before the limit.
  if (laned_ != 0) return stop(limit);
  return true;
}

void Scheduler::open_lane(std::uint32_t p) {
  Lane& l = lanes_[p];
  merge_ = p;
  rank_ = 0;
  if (l.due <= now_) {
    // Wakes at due, due + interval, ..., now_ - interval were quiet.
    if (l.due < now_) rekey(l, seq_at_quiet(now_ - interval_, p, now_));
    l.due = now_;
    merge_pos_ = 0;
  } else {
    // A bucket re-drained after run() stopped past it: the lane's entries
    // were dispatched here already and wake one interval on.
    merge_pos_ = l.entries.size();
  }
}

std::uint32_t Scheduler::merge_drain(std::uint32_t idx, std::uint32_t n,
                                     std::uint64_t& nodes) {
  for (;;) {
    // Lane entries whose keys come first are dispatched virtually:
    // re-keyed as the re-link of a skipped wake would be, and counted when
    // their record leaves the lane or run() returns.
    std::vector<LaneEntry>& es = lanes_[merge_].entries;
    while (merge_pos_ < es.size() &&
           (n == kNil || es[merge_pos_].key < nodes_[n].key)) {
      es[merge_pos_++].key = (seq_ << kRankBits) | ++rank_;
    }
    if (merge_pos_ == es.size() || n == kNil) return n;
    n = dispatch_head(idx, n);
    ++nodes;
  }
}

void Scheduler::close_lane() {
  Lane& l = lanes_[merge_];
  if (!l.entries.empty()) l.due = now_ + interval_;
  merge_ = kNoLane;
}

void Scheduler::join_lane(Wakeable& w, bool pushed) {
  assert(interval_ > 0 && "set_park_interval() before parking");
  assert(w.park.laned_in_ == nullptr && "one pending wake per parked record");
  if (merge_ == kNoLane) {
    // The drain's first lane key: no rank was handed out yet.
    rank_ = 0;
    merge_ = phase(now_);
    merge_pos_ = lanes_[merge_].entries.size();
  }
  std::vector<LaneEntry>& es = lanes_[merge_].entries;
  assert(es.size() < (1u << kRankBits) - 1);
  const std::uint64_t key =
      pushed ? ++seq_ << kRankBits : (seq_ << kRankBits) | ++rank_;
  es.insert(es.begin() + static_cast<std::ptrdiff_t>(merge_pos_),
            LaneEntry{&w, key, now_ + interval_});
  ++merge_pos_;
  w.park.laned_in_ = this;
  w.park.lane_ = merge_;
  ++laned_;
  ++pending_;  // a skipped wake's node leaves the wheel in run()
  if (!pushed) {
    ++w.park.skipped_;
    ++parked_wakes_;
  }
}

Cycle Scheduler::settle_lane(std::uint32_t p, Cycle last, Cycle end) {
  Lane& l = lanes_[p];
  if (l.due > last) return 0;
  const Cycle c_last = l.due + (last - l.due) / interval_ * interval_;
  rekey(l, seq_at_quiet(c_last, p, end));
  l.due = c_last + interval_;
  return c_last;
}

void Scheduler::rekey(Lane& l, std::uint64_t seq) {
  std::uint64_t rank = 0;
  for (LaneEntry& e : l.entries) e.key = (seq << kRankBits) | ++rank;
}

void Scheduler::count_skipped(LaneEntry& e, Cycle wake) {
  const std::uint64_t k = (wake - e.uncounted) / interval_;
  e.w->park.skipped_ += k;
  parked_wakes_ += k;
  events_ += k;
  e.uncounted = wake;
}

void Scheduler::unlane(Park& p) {
  Lane& l = lanes_[p.lane_];
  std::size_t i = 0;
  while (&l.entries[i].w->park != &p) ++i;
  Cycle wake;
  if (p.lane_ == merge_) {
    // The lane of the bucket being drained: an entry already dispatched
    // here next wakes one interval on; one still due wakes in this bucket,
    // behind the running handler.
    if (i < merge_pos_) {
      wake = now_ + interval_;
      --merge_pos_;
    } else {
      wake = l.due;
    }
  } else {
    if (l.due < now_) settle_lane(p.lane_, now_ - 1, now_);
    wake = l.due;
  }
  LaneEntry e = l.entries[i];
  l.entries.erase(l.entries.begin() + static_cast<std::ptrdiff_t>(i));
  p.laned_in_ = nullptr;
  count_skipped(e, wake);
  --laned_;
  insert(wake, reinterpret_cast<std::uintptr_t>(e.w) | kWakeTag, e.key);
}

void Scheduler::insert(Cycle t, std::uint64_t payload, std::uint64_t key) {
  if (t - window_start_ >= kWheelSize) {
    push_overflow(Key{t, key, payload});
    return;
  }
  const auto idx = static_cast<std::uint32_t>(t & kWheelMask);
  Bucket& b = wheel_[idx];
  if (!occupied(idx) || nodes_[b.tail].key < key) {
    append(idx, payload, key);
  } else {
    const std::uint32_t m = new_node(payload, key);
    if (key < nodes_[b.head].key) {
      nodes_[m].next = b.head;
      b.head = m;
    } else {
      std::uint32_t prev = b.head;
      while (nodes_[nodes_[prev].next].key < key) prev = nodes_[prev].next;
      nodes_[m].next = nodes_[prev].next;
      nodes_[prev].next = m;
    }
  }
  if (t < scan_t_) scan_t_ = t;
}

std::uint64_t Scheduler::seq_at_quiet(Cycle c, std::uint32_t pc,
                                      Cycle end) const {
  // Within a run() the seq moves only inside drains, so a quiet cycle sees
  // the seq the first drain after it started with, or the current one if
  // no drain came since. Every drain since c is less than an interval
  // later, so its slot has not been reused.
  std::uint32_t p = pc;
  for (Cycle k = 1; k <= end - c; ++k) {
    if (++p == interval_) p = 0;
    const DrainSeq& d = drain_seq_[p];
    if (d.t == c + k && d.run == runs_) return d.seq;
  }
  return seq_;
}

bool Scheduler::stop(Cycle limit) {
  if (laned_ != 0) {
    for (std::uint32_t p = 0; p < interval_; ++p) {
      Lane& l = lanes_[p];
      if (l.entries.empty()) continue;
      now_ = std::max(now_, settle_lane(p, limit, limit));
      for (LaneEntry& e : l.entries) count_skipped(e, l.due);
    }
  }
  return false;
}

}  // namespace suvtm::sim
