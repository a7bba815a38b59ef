#include "sim/barrier.hpp"

#include <cassert>

#include "sim/scheduler.hpp"

namespace suvtm::sim {

Barrier::Barrier(Scheduler& sched, std::uint32_t parties)
    : sched_(sched), parties_(parties) {
  assert(parties > 0);
  waiting_.reserve(parties);
}

Barrier::Waiter Barrier::arrive() { return Waiter{*this, sched_.now()}; }

bool Barrier::Waiter::await_suspend(std::coroutine_handle<> h) {
  Barrier& b = barrier;
  ++b.arrived_;
  if (b.arrived_ == b.parties_) {
    b.arrived_ = 0;
    // Last arriver: release everyone (including itself, by not suspending).
    b.release_all();
    waited = 0;
    return false;  // do not suspend
  }
  b.waiting_.push_back({h, this});
  return true;
}

void Barrier::release_all() {
  const Cycle now = sched_.now();
  // Take the list first: resumed coroutines may re-arrive at this barrier.
  std::vector<Pending> ready;
  ready.swap(waiting_);
  for (auto& p : ready) {
    assert(p.waiter->arrived_at <= now);
    p.waiter->waited = now - p.waiter->arrived_at;
    sched_.resume_after(1, p.h);
  }
}

}  // namespace suvtm::sim
