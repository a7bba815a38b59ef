#include "sim/scheduler.hpp"

#include <cassert>
#include <string>
#include <utility>

#include "check/check.hpp"
#include "obs/recorder.hpp"

namespace suvtm::sim {

void Scheduler::throw_scheduled_into_past(Cycle t) const {
  throw check::CheckFailure(
      "scheduler: event scheduled into the past (t=" + std::to_string(t) +
      " < now=" + std::to_string(now_) +
      "); the calendar queue would mis-bucket it a full window late");
}

void Scheduler::push_overflow(Cycle t, std::uint64_t payload) {
  overflow_.emplace_back();  // reserve the hole; sift_up fills it
  sift_up(overflow_.size() - 1, Key{t, seq_, payload});
}

bool Scheduler::run(Cycle limit) {
  while (pending_ > 0) {
    if (window_count_ == 0) {
      // Everything pending lives in the overflow level, beyond the window:
      // jump the window to the earliest overflow event and re-bucket. The
      // limit check comes first so an early return never leaves
      // window_start_ ahead of now_ (push() relies on that invariant).
      const Cycle t0 = overflow_.front().t;
      if (t0 > limit) return false;
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
    if (scan_t_ > limit) return false;

    // Batched same-cycle dispatch: drain the whole bucket. now_ advances
    // once, and the list walk picks up events appended *during* the drain
    // (an after(0) lands in this same bucket with a higher seq, exactly the
    // heap's tie-break). Callbacks may grow other buckets/overflow freely;
    // this bucket only ever grows at the tail.
    now_ = scan_t_;
    std::uint64_t batch = 0;
    for (std::uint32_t n = wheel_[idx].head; n != kNil; ++batch) {
      const std::uint64_t payload = nodes_[n].payload;
      if ((payload & kTagMask) == 0) [[likely]] {
        std::coroutine_handle<>::from_address(
            reinterpret_cast<void*>(static_cast<std::uintptr_t>(payload)))
            .resume();
      } else if (payload & kWakeTag) {
        Wakeable* w = reinterpret_cast<Wakeable*>(
            static_cast<std::uintptr_t>(payload & ~kTagMask));
        if (w->park.parked) {
          // A provably repeated retry: re-arm it the way its on_wake()
          // would have, without the call. interval > 0, so the node lands
          // in a later bucket (or the overflow heap), never this one.
          assert(w->park.interval > 0);
          ++w->park.skipped;
          ++parked_wakes_;
          push(now_ + w->park.interval, payload);
        } else {
          w->on_wake();
        }
      } else {
        const auto slot = static_cast<std::uint32_t>(payload >> 2);
        // Move the callback out before running it: fn may schedule new
        // events, which may reuse (and reassign) the freed slot.
        SmallFn fn = std::move(slots_[slot]);
        // lint: allow(growth-in-loop) -- capacity pre-reserved in at().
        free_slots_.push_back(slot);
        fn();
      }
      // Recycle n only after its handler returns: an append to this bucket
      // links the new node behind the tail, which may be n itself.
      const std::uint32_t next = nodes_[n].next;
      nodes_[n].next = free_;
      free_ = n;
      n = next;
    }
    clear_occupied(idx);
    events_ += batch;
    pending_ -= batch;
    window_count_ -= batch;
    SUVTM_OBS_HOOK(obs_, on_batch(now_, batch));
    ++scan_t_;
  }
  return true;
}

}  // namespace suvtm::sim
