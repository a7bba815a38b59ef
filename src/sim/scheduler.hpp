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
// resumes), so push and pop are O(1) list appends/drains instead of
// O(log n) heap sifts. Each bucket is a FIFO of nodes threaded through one
// pooled node array, so the wheel keeps no per-bucket storage and a run
// allocates only as many nodes as events are ever pending at once (one per
// core, plus the node being dispatched). Far-future events (deep backoff, the
// wheel-edge spill as `now_` approaches the window end) wait in a small
// binary-heap overflow level keyed by (cycle, seq) and are re-bucketed in
// key order when the window jumps forward, which preserves the global
// (cycle, insertion-seq) dispatch order bit-exactly: overflow events always
// carry smaller seqs than any event bucketed directly after the jump, so
// FIFO order within a bucket *is* seq order.
//
// Events are one 64-bit payload each, tagged in the low bit: a raw
// coroutine handle (tag 0; the dominant resume_after case) or a Wakeable
// record's address (tag 1; a core's NACK retries, commit/abort
// completions). External callbacks (tests, harnesses) go through at(),
// which wraps each callable in a heap-allocated Wakeable that the
// scheduler owns until it runs. Simulator events never allocate one.
//
// Parked wakes leave the wheel. A parked Wakeable (see Park) would only
// re-arm itself every `interval` cycles, so when a drain reaches one, or
// its handler re-arms it one interval ahead, it moves to lane
// `t mod interval` instead: a lane's records all wake at the same cycles,
// and a cycle whose only events are lane wakes (a "quiet" cycle) is never
// visited. Each lane entry carries the order key a re-link would have
// had -- the push seq at its virtual dispatch plus its rank among the
// wakes dispatched after that push -- so nodes store their key too, and
//   - a real bucket's drain merges its phase's lane between its nodes in
//     key order, re-keying each entry exactly as a re-link would;
//   - quiet cycles advance a lane by arithmetic. Within one run() the seq
//     moves only inside drains, so a wake dispatched at a quiet cycle takes
//     the seq the next drain started with (or the current one), ranked by
//     its position in the lane. Drains record their starting seq per
//     cycle mod interval, which covers every cycle a catch-up asks about:
//     it is less than an interval old. Records of earlier run() calls are
//     ignored, so pushes made between run() calls (PDES merges, harness
//     at() calls) come before every wake the next run dispatches;
//   - Park::unpark() puts a record back at its exact (cycle, key) slot in
//     the wheel or the overflow heap, behind the running handler if the
//     wake is still due in the current bucket.
// The order is exact because every key compares as the re-linking
// scheduler's seq would: a wake dispatched after push s and before push
// s + 1 sorts between them, and wakes dispatched between the same two
// pushes keep their dispatch order. Counts (events_processed(),
// parked_wakes(), Park::skipped(), pending()) and now() after run(limit)
// come out as if every quiet cycle had been drained: lanes are settled
// through the limit when run() returns.
//
// run() dispatches per *bucket*, not per event: `now_` advances once per
// simulated cycle. With obs on, each drained cycle is announced to the
// recorder before it dispatches (obs::Recorder::on_cycle); the recorder
// alone decides when to sample occupancy, on its simulated-cycle grid.
#pragma once

#include <bit>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/obs.hpp"

namespace suvtm::sim {

class Scheduler;

/// A Wakeable's parked-retry state. While the record is parked,
/// Scheduler::run does not call its on_wake(): the wake is dispatched
/// virtually every Scheduler::park_interval() cycles -- at the cycle, in
/// the same-cycle order and with the events_processed() count of an
/// on_wake() that only re-armed the record -- and counted in skipped().
/// Whoever parks the record (htm::ConflictManager, for a NACKed core whose
/// retry provably repeats its decision) unparks it on every change that
/// could make the skipped call act differently; the owner settles
/// skipped() at its next real wake. A parked record has at most one
/// pending wake, as a ThreadContext's single wake slot guarantees.
class Park {
 public:
  bool parked() const { return parked_; }
  /// Skip the owner's wakes from its next one on.
  void park() { parked_ = true; }
  /// Run the owner's next wake for real. A record waiting in a scheduler
  /// lane goes back to the exact slot its re-armed wake would hold.
  void unpark();

  /// Wakes skipped since the owner last settled. Exact whenever no
  /// Scheduler::run is on the stack, and for an unparked record always.
  std::uint64_t skipped() const { return skipped_; }
  std::uint64_t take_skipped() { return std::exchange(skipped_, 0); }

 private:
  friend class Scheduler;
  Scheduler* laned_in_ = nullptr;  // set while the record waits in a lane
  std::uint32_t lane_ = 0;         // which lane, while laned_in_ is set
  bool parked_ = false;
  std::uint64_t skipped_ = 0;
};

/// An intrusive event record: Scheduler::wake_at schedules its address as
/// the event payload, and dispatch is one virtual call (or, while `park` is
/// parked, a virtual dispatch without the call). The record must outlive
/// its pending events.
class Wakeable {
 public:
  virtual void on_wake() = 0;

  Park park;

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

  Scheduler() : wheel_(kWheelSize) {}
  // Parked records point back at their scheduler.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Frees the at() callbacks still pending.
  ~Scheduler();

  /// Current simulated time.
  Cycle now() const { return now_; }

  /// Run `fn()` at absolute cycle `t` (>= now): the general callback path,
  /// for tests and external harnesses. Each call allocates one record,
  /// which frees itself (and `fn`) before `fn` runs; the simulator's own
  /// events go through resume_at and wake_at, which allocate nothing.
  template <class F>
  void at(Cycle t, F&& fn) {
    check_not_past(t);  // before the allocation
    wake_at(t, *new Call<std::decay_t<F>>(calls_, std::forward<F>(fn)));
    ++callbacks_;
  }

  /// Run `fn()` `delay` cycles from now.
  template <class F>
  void after(Cycle delay, F&& fn) {
    at(now_ + delay, std::forward<F>(fn));
  }

  /// Resume a coroutine at absolute cycle `t`: the handle rides in the
  /// event payload itself.
  void resume_at(Cycle t, std::coroutine_handle<> h) {
    check_not_past(t);
    const auto payload = reinterpret_cast<std::uintptr_t>(h.address());
    assert((payload & kWakeTag) == 0 && "coroutine frames are 2-aligned");
    push(t, static_cast<std::uint64_t>(payload));
  }

  /// Resume a coroutine `delay` cycles from now.
  void resume_after(Cycle delay, std::coroutine_handle<> h) {
    resume_at(now_ + delay, h);
  }

  /// Call `w.on_wake()` at absolute cycle `t`. Like resume_at, the record's
  /// address rides in the payload.
  void wake_at(Cycle t, Wakeable& w) {
    check_not_past(t);
    const auto payload = reinterpret_cast<std::uintptr_t>(&w);
    assert((payload & kWakeTag) == 0);
    // A parked record re-armed by a handler one interval ahead skips that
    // wake: it goes straight to its lane instead of the wheel.
    if (w.park.parked_ && in_run_ && t == now_ + interval_) [[unlikely]] {
      join_lane(w, /*pushed=*/true);
      return;
    }
    push(t, static_cast<std::uint64_t>(payload) | kWakeTag);
  }

  /// Call `w.on_wake()` `delay` cycles from now.
  void wake_after(Cycle delay, Wakeable& w) { wake_at(now_ + delay, w); }

  /// Set the distance between a parked record's skipped wakes (> 0). One
  /// interval per scheduler: every record parked here re-arms by it.
  void set_park_interval(Cycle interval);
  Cycle park_interval() const { return interval_; }

  /// Process events until the queue is empty or `limit` cycles elapse.
  /// Returns false if the limit was hit with events still pending.
  bool run(Cycle limit);

  std::size_t pending() const { return pending_; }
  std::uint64_t events_processed() const { return events_; }
  /// Wakes dispatched without on_wake() because their record was parked
  /// (counted in events_processed() too). Host diagnostics only.
  std::uint64_t parked_wakes() const { return parked_wakes_; }

  /// Observability: run() tells the recorder each cycle it drains, before
  /// dispatching it (nullptr = off). The recorder reads now() itself.
  void set_obs(obs::Recorder* r) { obs_ = r; }

  // ---- introspection for tests and diagnostics -----------------------------
  /// at() callbacks scheduled so far.
  std::uint64_t callbacks() const { return callbacks_; }
  std::size_t node_pool_size() const { return nodes_.size(); }

 private:
  friend class Park;

  /// A pending at() callback: linked into its scheduler's list of live
  /// records, so ~Scheduler frees those that never ran.
  class CallLink : public Wakeable {
   public:
    explicit CallLink(CallLink*& head) : next_(head), prev_(&head) {
      if (next_ != nullptr) next_->prev_ = &next_;
      head = this;
    }
    CallLink(const CallLink&) = delete;
    CallLink& operator=(const CallLink&) = delete;
    virtual ~CallLink() {
      *prev_ = next_;
      if (next_ != nullptr) next_->prev_ = prev_;
    }

   private:
    CallLink* next_;
    CallLink** prev_;  // the link that points here
  };

  template <class F>
  class Call final : public CallLink {
   public:
    template <class G>
    Call(CallLink*& head, G&& fn) : CallLink(head), fn_(std::forward<G>(fn)) {}

    /// The record is gone before `fn` runs, so `fn` may throw or schedule
    /// more callbacks.
    void on_wake() override {
      F fn = std::move(fn_);
      delete this;
      fn();
    }

   private:
    F fn_;
  };

  /// Order keys: (push seq << kRankBits) | rank. A pushed event has rank 0;
  /// a lane entry's rank orders the parked wakes dispatched between the
  /// same two pushes.
  static constexpr unsigned kRankBits = 16;

  /// Overflow key: full (t, key) order so re-bucketing replays dispatch
  /// order exactly. Payload encoding matches the buckets.
  struct Key {
    Cycle t;
    std::uint64_t key;
    std::uint64_t payload;

    bool before(const Key& o) const {
      return t != o.t ? t < o.t : key < o.key;
    }
  };
  static_assert(sizeof(Key) <= 24, "overflow keys must stay small PODs");

  /// One pending bucketed event: its payload, its order key and the index
  /// of the next node in its bucket's list, or in the free list once
  /// recycled.
  struct Node {
    std::uint64_t payload;
    std::uint64_t key;
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// A bucket's list, in key order, as first/last node indices; meaningful
  /// only while the bucket's occupancy bit is set.
  struct Bucket {
    std::uint32_t head;
    std::uint32_t tail;
  };

  /// A parked record between wakes: its order key for the lane's next
  /// wake, and its first skipped wake not yet counted (in its Park,
  /// parked_wakes() and events_processed()).
  struct LaneEntry {
    Wakeable* w;
    std::uint64_t key;
    Cycle uncounted;
  };
  /// The parked records of one phase (cycle mod interval), in key order.
  /// All of them wake at `due`, then every interval cycles.
  struct Lane {
    Cycle due = 0;
    std::vector<LaneEntry> entries;
  };
  static constexpr std::uint32_t kNoLane = ~std::uint32_t{0};

  /// The seq a drain of cycle `t` started with, in the `run`-th run().
  struct DrainSeq {
    Cycle t;
    std::uint64_t seq;
    std::uint64_t run;
  };

  /// Payload tag (low bit): set for a Wakeable, clear for a coroutine.
  static constexpr std::uint64_t kWakeTag = 1;
  static_assert(alignof(Wakeable) >= 2, "wake payloads need a tag bit");

  /// The schedule-into-the-past guard. The binary heap merely mis-ordered a
  /// past-time event; the wheel would silently mis-bucket it a whole window
  /// late, so the guard throws a catchable check::CheckFailure (see
  /// scheduler_property_test).
  void check_not_past(Cycle t) const {
    if (t < now_) throw_scheduled_into_past(t);
  }
  [[noreturn]] void throw_scheduled_into_past(Cycle t) const;

  void push(Cycle t, std::uint64_t payload) {
    ++pending_;
    const std::uint64_t key = ++seq_ << kRankBits;
    // Invariant outside run(): window_start_ <= now_ <= t, so the unsigned
    // difference below is exact.
    if (t - window_start_ < kWheelSize) [[likely]] {
      append(static_cast<std::uint32_t>(t & kWheelMask), payload, key);
      // Events may be (re)scheduled at cycles the scan cursor already
      // passed without dispatching (e.g. at(now()) between run() calls).
      if (t < scan_t_) scan_t_ = t;
    } else {
      push_overflow(Key{t, key, payload});
    }
  }

  /// A node holding `payload` and `key`, from the free list or the grown
  /// pool.
  std::uint32_t new_node(std::uint64_t payload, std::uint64_t key) {
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n] = Node{payload, key, kNil};
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{payload, key, kNil});
    }
    ++window_count_;
    return n;
  }

  /// Append at the tail of bucket `idx`; `key` is the bucket's largest.
  void append(std::uint32_t idx, std::uint64_t payload, std::uint64_t key) {
    const std::uint32_t n = new_node(payload, key);
    Bucket& b = wheel_[idx];
    if (occupied(idx)) {
      nodes_[b.tail].next = n;
    } else {
      b.head = n;
      mark_occupied(idx);
    }
    b.tail = n;
  }

  /// The far-future branch of push(), kept out of line so the inlined
  /// wheel append stays small at every resume_at/wake_at/at call site.
  void push_overflow(const Key& k);

  // ---- parked lanes ----------------------------------------------------------
  /// The lane of cycle `t`.
  std::uint32_t phase(Cycle t) const {
    return static_cast<std::uint32_t>(t % interval_);
  }
  /// Dispatch one wheel node's event (a parked wake joins its lane).
  void dispatch(std::uint64_t payload) {
    if ((payload & kWakeTag) == 0) [[likely]] {
      std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(static_cast<std::uintptr_t>(payload)))
          .resume();
    } else {
      Wakeable* w = reinterpret_cast<Wakeable*>(
          static_cast<std::uintptr_t>(payload & ~kWakeTag));
      if (w->park.parked_) [[unlikely]] {
        join_lane(*w, /*pushed=*/false);
      } else {
        w->on_wake();
      }
    }
  }
  /// Dispatch the head node of bucket `idx`, recycle it, and return the
  /// next one. The head stays the running node while its handler runs, so
  /// an unpark can insert in key order behind it.
  std::uint32_t dispatch_head(std::uint32_t idx, std::uint32_t n) {
    dispatch(nodes_[n].payload);
    // Recycle n only after its handler returns: an append to this bucket
    // links the new node behind the tail, which may be n itself.
    const std::uint32_t next = nodes_[n].next;
    nodes_[n].next = free_;
    free_ = n;
    wheel_[idx].head = next;
    return next;
  }
  /// Set up the drain of cycle now_ (phase `p`, whose lane is non-empty):
  /// settle lane `p`.
  void open_lane(std::uint32_t p);
  /// Drain bucket `idx` from node `n` while its lane still has wakes due
  /// now: the lane's entries and the nodes go in key order. Returns the
  /// first node left once no lane wake is due; counts the nodes it
  /// dispatched into `nodes`.
  std::uint32_t merge_drain(std::uint32_t idx, std::uint32_t n,
                            std::uint64_t& nodes);
  /// The drain of now_ is done: fix its lane's next wake.
  void close_lane();
  /// Record `w` in the lane of now_'s phase, behind the wakes already
  /// dispatched in this bucket and ahead of those still due; it next wakes
  /// one interval on. Either its wake in this bucket was skipped, or
  /// (`pushed`) its handler just re-armed it: the entry then stands for the
  /// node push() would have made, with that node's key.
  void join_lane(Wakeable& w, bool pushed);
  /// Dispatch lane `p`'s wakes at every cycle in [due, last] (all quiet)
  /// by arithmetic: re-key the entries as the last such wake left them.
  /// `end` is the last cycle drained so far. Returns the last such cycle,
  /// or 0 if there was none.
  Cycle settle_lane(std::uint32_t p, Cycle last, Cycle end);
  /// Re-key every entry of `l` as wakes dispatched at a quiet cycle whose
  /// seq in force is `seq`.
  void rekey(Lane& l, std::uint64_t seq);
  /// Count `e`'s skipped wakes before `wake`, its next one.
  void count_skipped(LaneEntry& e, Cycle wake);
  /// Park::unpark() of a laned record: back to the wheel at its slot.
  void unlane(Park& p);
  /// Insert a node in key order into the bucket of cycle `t` (or the
  /// overflow heap).
  void insert(Cycle t, std::uint64_t payload, std::uint64_t key);
  /// The seq in force at quiet cycle `c` (phase `pc`) of this run(), with
  /// no drain after `end`.
  std::uint64_t seq_at_quiet(Cycle c, std::uint32_t pc, Cycle end) const;
  /// run()'s early return at `limit` with events pending: settle and flush
  /// every lane through the limit.
  bool stop(Cycle limit);

  // ---- occupancy bitmap ----------------------------------------------------
  // One bit per bucket plus a one-word summary (bit w set iff occ_[w] != 0),
  // so the run loop finds the next populated cycle with two bit-scans
  // instead of walking empty buckets -- the real simulator's schedule is
  // sparse in time (memory latencies spread events ~150 cycles apart).
  static constexpr std::uint32_t kOccWords = kWheelSize / 64;
  static_assert(kOccWords <= 64, "summary must fit one word");

  bool occupied(std::uint32_t idx) const {
    return (occ_[idx >> 6] >> (idx & 63u)) & 1u;
  }

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
  /// bucket. Heap pops come out in (t, key) order, and every event bucketed
  /// directly afterwards has a larger key, so buckets stay in key order.
  void refill_window() {
    while (!overflow_.empty() &&
           overflow_.front().t - window_start_ < kWheelSize) {
      const Key k = pop_min();
      append(static_cast<std::uint32_t>(k.t & kWheelMask), k.payload, k.key);
    }
  }

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
  std::uint64_t seq_ = 0;   // pushes so far
  std::uint64_t events_ = 0;
  std::uint64_t parked_wakes_ = 0;
  std::size_t pending_ = 0;       // bucketed + overflow + laned events
  std::size_t window_count_ = 0;  // bucketed events only
  obs::Recorder* obs_ = nullptr;
  std::vector<Bucket> wheel_;     // kWheelSize per-cycle buckets
  std::vector<Node> nodes_;       // node pool behind every bucket
  std::uint32_t free_ = kNil;     // free-list head, threaded through next
  std::uint64_t occ_[kOccWords] = {};  // bit per non-empty bucket
  std::uint64_t occ_summary_ = 0;      // bit w set iff occ_[w] != 0
  std::vector<Key> overflow_;     // binary min-heap by (t, key)
  CallLink* calls_ = nullptr;     // at() callbacks not yet run
  std::uint64_t callbacks_ = 0;   // at() calls so far

  // ---- parked lanes ----------------------------------------------------------
  Cycle interval_ = 0;
  std::vector<Lane> lanes_;       // one per phase
  std::size_t laned_ = 0;         // records waiting in lanes
  bool in_run_ = false;
  std::uint32_t merge_ = kNoLane;  // lane of the bucket being drained
  std::size_t merge_pos_ = 0;     // its first entry not yet dispatched
  std::uint64_t rank_ = 0;        // lane keys handed out this drain
  std::vector<DrainSeq> drain_seq_;  // by phase: the last interval cycles
  std::uint64_t runs_ = 0;        // run() calls so far
};

inline void Park::unpark() {
  parked_ = false;
  if (laned_in_ != nullptr) laned_in_->unlane(*this);
}

}  // namespace suvtm::sim
