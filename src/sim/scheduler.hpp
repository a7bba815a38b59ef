// Deterministic discrete-event scheduler.
//
// Single-threaded by design: determinism and reproducibility matter more for
// an architecture simulator than host-level parallelism, and it keeps the
// entire coherence/HTM state machine free of host synchronization. Ties are
// broken by insertion order. (Host-level parallelism lives one layer up: the
// runner fans independent Simulator instances across cores, see
// runner::parallel_for.)
//
// Hot-path notes: the event queue is a calendar queue -- a wheel of
// kWheelSize per-cycle buckets covering the window [window_start_,
// window_start_ + kWheelSize). Nearly every event in this simulator is an
// `after(small delay)` (cache hits, NoC hops, stall retries, coroutine
// resumes), so push and pop are O(1) appends/drains on a flat vector
// instead of O(log n) heap sifts. Far-future events (deep backoff, the
// wheel-edge spill as `now_` approaches the window end) park in a small
// binary-heap overflow level keyed by (cycle, seq) and are re-bucketed in
// key order when the window jumps forward, which preserves the global
// (cycle, insertion-seq) dispatch order bit-exactly: overflow events always
// carry smaller seqs than any event bucketed directly after the jump, so
// FIFO order within a bucket *is* seq order.
//
// Events are one 64-bit payload each, tagged in the low two bits: a raw
// coroutine handle (tag 0; the dominant resume_after case -- no SmallFn
// construction, no type-erased call), a Wakeable record's address (tag 2;
// a core's NACK retries, commit/abort completions), or (slot << 2) | 1 into
// a free-listed SmallFn slot pool for external callbacks (tests, harnesses).
// Simulator events never touch the slot pool.
//
// run() dispatches per *bucket*, not per event: `now_` advances once per
// simulated cycle, and the observability cycle-cache/sampler update is one
// batched call per non-empty cycle instead of one per event.
#pragma once

#include <bit>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "obs/obs.hpp"
#include "sim/small_fn.hpp"

namespace suvtm::sim {

/// An intrusive event record: Scheduler::wake_at schedules its address as
/// the event payload, and dispatch is one virtual call. The record must
/// outlive its pending events.
class Wakeable {
 public:
  virtual void on_wake() = 0;

 protected:
  ~Wakeable() = default;
};

class Scheduler {
 public:
  /// Wheel geometry: one bucket per cycle, covering a sliding window of
  /// kWheelSize cycles. Sized so every common latency in the model (L1/L2,
  /// directory, memory at 150, mesh hops, stall retries) lands in a bucket
  /// directly; only deep exponential backoff and the window-edge transit
  /// take the overflow heap.
  static constexpr std::uint32_t kWheelBits = 11;
  static constexpr std::uint32_t kWheelSize = 1u << kWheelBits;  // 2048 cycles
  static constexpr Cycle kWheelMask = kWheelSize - 1;

  /// Quiescent-point trim thresholds (see trim_quiescent()).
  static constexpr std::size_t kSlotPoolTrim = 1024;
  static constexpr std::size_t kBucketCapacityTrim = 64;

  Scheduler() : wheel_(kWheelSize) {}

  /// Current simulated time.
  Cycle now() const { return now_; }

  /// Run `fn` at absolute cycle `t` (>= now): the general callback path,
  /// for tests and external harnesses. The simulator's own events go through
  /// resume_at and wake_at, which skip the slot pool.
  void at(Cycle t, SmallFn fn) {
    check_not_past(t);
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(fn));
      // Keep the free list's capacity at least the pool size so the
      // bucket-drain loop's push_back never allocates.
      free_slots_.reserve(slots_.capacity());
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(fn);
    }
    push(t, (static_cast<std::uint64_t>(slot) << 2) | kSlotTag);
  }

  /// Run `fn` `delay` cycles from now.
  void after(Cycle delay, SmallFn fn) { at(now_ + delay, std::move(fn)); }

  /// Resume a coroutine at absolute cycle `t`. Dedicated fast slot: the
  /// handle rides in the event payload itself -- no SmallFn type erasure,
  /// no slot-pool traffic.
  void resume_at(Cycle t, std::coroutine_handle<> h) {
    check_not_past(t);
    const auto payload = reinterpret_cast<std::uintptr_t>(h.address());
    assert((payload & kTagMask) == 0 && "coroutine frames are 4-aligned");
    push(t, static_cast<std::uint64_t>(payload));
  }

  /// Resume a coroutine `delay` cycles from now.
  void resume_after(Cycle delay, std::coroutine_handle<> h) {
    resume_at(now_ + delay, h);
  }

  /// Call `w.on_wake()` at absolute cycle `t`. Like resume_at, the record's
  /// address rides in the payload: no slot-pool traffic.
  void wake_at(Cycle t, Wakeable& w) {
    check_not_past(t);
    const auto payload = reinterpret_cast<std::uintptr_t>(&w);
    assert((payload & kTagMask) == 0);
    push(t, static_cast<std::uint64_t>(payload) | kWakeTag);
  }

  /// Call `w.on_wake()` `delay` cycles from now.
  void wake_after(Cycle delay, Wakeable& w) { wake_at(now_ + delay, w); }

  /// Process events until the queue is empty or `limit` cycles elapse.
  /// Returns false if the limit was hit with events still pending.
  bool run(Cycle limit);

  std::size_t pending() const { return pending_; }
  std::uint64_t events_processed() const { return events_; }

  /// Observability: the run loop advances the recorder's cycle cache and
  /// drives its periodic occupancy sampler (nullptr = off).
  void set_obs(obs::Recorder* r) { obs_ = r; }

  // ---- introspection for tests and diagnostics -----------------------------
  std::size_t slot_pool_capacity() const { return slots_.size(); }

 private:
  /// Overflow key: full (t, seq) order so re-bucketing replays insertion
  /// order exactly. Payload encoding matches the buckets.
  struct Key {
    Cycle t;
    std::uint64_t seq;
    std::uint64_t payload;

    bool before(const Key& o) const {
      return t != o.t ? t < o.t : seq < o.seq;
    }
  };
  static_assert(sizeof(Key) <= 24, "overflow keys must stay small PODs");

  using Bucket = std::vector<std::uint64_t>;

  /// Payload tags (low two bits); tag 0 is a coroutine handle.
  static constexpr std::uint64_t kSlotTag = 1;
  static constexpr std::uint64_t kWakeTag = 2;
  static constexpr std::uint64_t kTagMask = 3;
  static_assert(alignof(Wakeable) >= 4, "wake payloads need two tag bits");

  /// The schedule-into-the-past guard. The binary heap merely mis-ordered a
  /// past-time event; the wheel would silently mis-bucket it a whole window
  /// late, so the guard throws a catchable check::CheckFailure (see
  /// scheduler_property_test).
  void check_not_past(Cycle t) const {
    if (t < now_) throw_scheduled_into_past(t);
  }
  [[noreturn]] void throw_scheduled_into_past(Cycle t) const;

  void push(Cycle t, std::uint64_t payload) {
    ++seq_;
    ++pending_;
    // Invariant outside run(): window_start_ <= now_ <= t, so the unsigned
    // difference below is exact.
    if (t - window_start_ < kWheelSize) [[likely]] {
      const std::uint32_t idx = static_cast<std::uint32_t>(t & kWheelMask);
      wheel_[idx].push_back(payload);
      mark_occupied(idx);
      ++window_count_;
      // Events may be (re)scheduled at cycles the scan cursor already
      // passed without dispatching (e.g. at(now()) between run() calls).
      if (t < scan_t_) scan_t_ = t;
    } else {
      push_overflow(t, payload);
    }
  }

  /// The far-future branch of push(), kept out of line so the inlined
  /// wheel append stays small at every resume_at/wake_at/at call site.
  void push_overflow(Cycle t, std::uint64_t payload);

  // ---- occupancy bitmap ----------------------------------------------------
  // One bit per bucket plus a one-word summary (bit w set iff occ_[w] != 0),
  // so the run loop finds the next populated cycle with two bit-scans
  // instead of walking empty buckets -- the real simulator's schedule is
  // sparse in time (memory latencies spread events ~150 cycles apart).
  static constexpr std::uint32_t kOccWords = kWheelSize / 64;
  static_assert(kOccWords <= 64, "summary must fit one word");

  void mark_occupied(std::uint32_t idx) {
    occ_[idx >> 6] |= 1ull << (idx & 63u);
    occ_summary_ |= 1ull << (idx >> 6);
  }

  void clear_occupied(std::uint32_t idx) {
    occ_[idx >> 6] &= ~(1ull << (idx & 63u));
    if (occ_[idx >> 6] == 0) occ_summary_ &= ~(1ull << (idx >> 6));
  }

  /// Index of the first occupied bucket at or (circularly) after `from`.
  /// Requires window_count_ > 0.
  std::uint32_t next_occupied(std::uint32_t from) const {
    const std::uint32_t w0 = from >> 6;
    const std::uint64_t head = occ_[w0] & (~0ull << (from & 63u));
    if (head != 0) {
      return (w0 << 6) | static_cast<std::uint32_t>(std::countr_zero(head));
    }
    // First non-empty word strictly after w0, wrapping to the lowest
    // non-empty word (which may be w0 itself, carrying wrapped events).
    const std::uint64_t above = occ_summary_ & (~0ull << (w0 + 1));
    const std::uint32_t w = static_cast<std::uint32_t>(
        std::countr_zero(above != 0 ? above : occ_summary_));
    return (w << 6) |
           static_cast<std::uint32_t>(std::countr_zero(occ_[w]));
  }

  /// Move every overflow event inside the (re-positioned) window into its
  /// bucket. Heap pops come out in (t, seq) order, and every event bucketed
  /// directly afterwards has a larger seq, so buckets stay FIFO == seq.
  void refill_window() {
    while (!overflow_.empty() &&
           overflow_.front().t - window_start_ < kWheelSize) {
      const Key k = pop_min();
      const std::uint32_t idx = static_cast<std::uint32_t>(k.t & kWheelMask);
      // Amortized wheel-edge transit; bucket capacity is retained across
      // windows (clear() keeps it).  // lint: allow(growth-in-loop)
      wheel_[idx].push_back(k.payload);
      mark_occupied(idx);
      ++window_count_;
    }
  }

  /// Release bursty high-water storage once the queue is quiescent
  /// (pending_ == 0): barrier-release storms and deep retry storms grow the
  /// slot pool and bucket capacities, and nothing ever shrank them before.
  void trim_quiescent();

  /// Place `k` into the overflow heap starting the upward search at hole
  /// `i` (the freshly appended last element).
  void sift_up(std::size_t i, Key k) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!k.before(overflow_[parent])) break;
      overflow_[i] = overflow_[parent];
      i = parent;
    }
    overflow_[i] = k;
  }

  /// Pop the minimum overflow key (overflow_ must be non-empty).
  Key pop_min() {
    const Key min = overflow_.front();
    const Key last = overflow_.back();
    overflow_.pop_back();
    const std::size_t n = overflow_.size();
    if (n > 0) {
      // Sift the former last key down from the root, pulling the smaller
      // child up through the hole.
      std::size_t i = 0;
      for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && overflow_[child + 1].before(overflow_[child]))
          ++child;
        if (!overflow_[child].before(last)) break;
        overflow_[i] = overflow_[child];
        i = child;
      }
      overflow_[i] = last;
    }
    return min;
  }

  Cycle now_ = 0;
  Cycle window_start_ = 0;  // wheel covers [window_start_, +kWheelSize)
  Cycle scan_t_ = 0;        // next cycle run() inspects (>= now_)
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::size_t pending_ = 0;       // bucketed + overflow events
  std::size_t window_count_ = 0;  // bucketed events only
  obs::Recorder* obs_ = nullptr;
  std::vector<Bucket> wheel_;     // kWheelSize per-cycle FIFO buckets
  std::uint64_t occ_[kOccWords] = {};  // bit per non-empty bucket
  std::uint64_t occ_summary_ = 0;      // bit w set iff occ_[w] != 0
  std::vector<Key> overflow_;     // binary min-heap by (t, seq)
  std::vector<SmallFn> slots_;    // parked callbacks, indexed by payload>>2
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace suvtm::sim
