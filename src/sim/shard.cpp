#include "sim/shard.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <thread>

#include "htm/htm_system.hpp"
#include "mem/memory_system.hpp"

namespace suvtm::sim {

namespace {

// The PdesProfile clock. Its readings only describe the host run; nothing
// simulated ever reads them.
// lint: allow(wallclock-entropy): host profile only, never simulated state
using HostClock = std::chrono::steady_clock;

double seconds_since(HostClock::time_point t0) {
  // lint: allow(wallclock-entropy): host profile only, never simulated state
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

}  // namespace

double PdesProfile::imbalance_bound() const {
  double busy = 0.0;
  // lint: allow(float-accum-order): domain order; host seconds only
  for (double b : domain_busy_s) busy += b;
  return critical_path_s > 0.0 ? busy / critical_path_s : 0.0;
}

Cycle ShardRuntime::effective_window(const SimConfig& cfg) {
  const Cycle w = cfg.pdes.window_cycles != 0 ? cfg.pdes.window_cycles
                                              : kDefaultWindowCycles;
  // Floor: one NoC hop. A remote request posted in window k is serviced at
  // boundary k+1, i.e. at most one window after its post cycle; keeping the
  // window at least one hop long means the boundary round-up never delivers
  // a message faster than the mesh could physically carry it.
  const Cycle hop = cfg.mem.mesh_wire_latency + cfg.mem.mesh_route_latency;
  return std::max(w, hop);
}

ShardRuntime::ShardRuntime(const SimConfig& cfg, const ShardMap& map,
                           std::vector<DomainPort> domains, Mailboxes& boxes,
                           Breakdown* breakdowns)
    : cfg_(cfg), map_(map), domains_(std::move(domains)), boxes_(boxes),
      breakdowns_(breakdowns), window_(effective_window(cfg)),
      retry_(map.shards), errors_(map.shards), window_busy_s_(map.shards) {
  // One-way NoC latency between shard home tiles (a shard's home tile is
  // its first core's tile): the conservative transport charge for a
  // boundary-merged message in each direction.
  const std::uint32_t S = map_.shards;
  const std::uint32_t tiles =
      cfg.mem.mesh_dim * cfg.mem.mesh_dim;
  const mem::Mesh mesh(cfg.mem.mesh_dim, cfg.mem.mesh_wire_latency,
                       cfg.mem.mesh_route_latency);
  hop_.resize(static_cast<std::size_t>(S) * S);
  for (std::uint32_t s = 0; s < S; ++s) {
    for (std::uint32_t r = 0; r < S; ++r) {
      const std::uint32_t ts = (s * map_.cores_per_shard) % tiles;
      const std::uint32_t tr = (r * map_.cores_per_shard) % tiles;
      hop_[static_cast<std::size_t>(s) * S + r] = mesh.latency(ts, tr);
    }
  }
}

bool ShardRuntime::run(Cycle max_cycles) {
  const std::uint32_t S = map_.shards;
  max_cycles_ = max_cycles;
  boundary_ = std::min<Cycle>(window_, max_cycles + 1);
  done_ = false;
  overran_ = false;

  // Domain d is driven by host thread d % N for the whole run: the static
  // assignment means every thread count -- including N == 1 -- executes the
  // identical per-domain schedule, so bit-identity across thread counts is
  // a property of the code path, not a property we hope the merge restores.
  const std::uint32_t N = std::min<std::uint32_t>(
      std::max<std::uint32_t>(1, cfg_.pdes.host_threads), S);
  profile_ = PdesProfile{};
  profile_.host_threads = N;
  profile_.domain_busy_s.assign(S, 0.0);
  profile_.thread_wait_s.assign(N, 0.0);

  std::barrier bar(static_cast<std::ptrdiff_t>(N),
                   [this]() noexcept { end_window(); });

  auto worker = [&](std::uint32_t k) {
    for (;;) {
      for (std::uint32_t d = k; d < S; d += N) {
        if (errors_[d]) continue;
        const HostClock::time_point t0 = HostClock::now();
        try {
          // Execute every event with t < boundary_; cross-boundary events
          // stay queued. Scheduler::run is inclusive of its limit.
          domains_[d].sched->run(boundary_ - 1);
        } catch (...) {
          errors_[d] = std::current_exception();
        }
        window_busy_s_[d] = seconds_since(t0);
      }
      const HostClock::time_point w0 = HostClock::now();
      // The one cross-thread synchronization point per window; the
      // completion function above merges the mailboxes on a single thread
      // while everyone else is parked. // lint: allow(sync-in-drain)
      bar.arrive_and_wait();
      profile_.thread_wait_s[k] += seconds_since(w0);
      if (done_ || overran_) return;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(N);
  for (std::uint32_t k = 0; k < N; ++k) threads.emplace_back(worker, k);
  for (auto& t : threads) t.join();
  profile_.domain_events.resize(S);
  for (std::uint32_t d = 0; d < S; ++d) {
    profile_.domain_events[d] = domains_[d].sched->events_processed();
  }
  return !overran_;
}

void ShardRuntime::rethrow_domain_error() const {
  for (const auto& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

void ShardRuntime::end_window() {
  const HostClock::time_point m0 = HostClock::now();
  double slowest = 0.0;
  for (std::size_t d = 0; d < window_busy_s_.size(); ++d) {
    profile_.domain_busy_s[d] += window_busy_s_[d];
    slowest = std::max(slowest, window_busy_s_[d]);
    window_busy_s_[d] = 0.0;
  }
  profile_.critical_path_s += slowest;
  ++profile_.windows;
  merge_boundary();
  profile_.merge_s += seconds_since(m0);
}

void ShardRuntime::merge_boundary() {
  const std::uint32_t S = map_.shards;
  for (const auto& e : errors_) {
    if (e) {
      done_ = true;
      return;
    }
  }

  // Canonical drain order -- the determinism linchpin: receivers ascending;
  // within a receiver, previously stalled requests in arrival order, then
  // fresh mail by ascending sender, each box in post (FIFO) order.
  for (std::uint32_t r = 0; r < S; ++r) {
    retry_scratch_.clear();
    retry_scratch_.swap(retry_[r]);
    for (const RemoteMsg& m : retry_scratch_) process_remote(r, m);
    for (std::uint32_t s = 0; s < S; ++s) {
      std::vector<RemoteMsg>& b = boxes_.box(s, r);
      for (const RemoteMsg& m : b) process_remote(r, m);
      b.clear();
    }
  }

  bool idle = true;
  for (std::uint32_t d = 0; d < S; ++d) {
    if (domains_[d].sched->pending() != 0 || !retry_[d].empty()) {
      idle = false;
      break;
    }
  }
  if (idle) {
    done_ = true;
    return;
  }
  if (boundary_ > max_cycles_) {
    overran_ = true;
    return;
  }
  boundary_ = std::min<Cycle>(boundary_ + window_, max_cycles_ + 1);
}

void ShardRuntime::process_remote(std::uint32_t to, const RemoteMsg& m) {
  const std::uint32_t from = map_.shard_of_core(m.core);
  DomainPort& own = domains_[to];

  // Mirror of the local non-transactional load path (thread_context.cpp):
  // conflict check against the owner domain, then VM-resolved timed access.
  auto dec = own.htm->conflicts().check(m.core, line_of(m.addr),
                                        /*is_write=*/false,
                                        /*requester_lazy=*/false,
                                        own.htm->txn_view());
  if (dec.victim != kNoCore && dec.victim != m.core) {
    own.htm->doom(dec.victim, dec.victim_cause);
  }
  if (dec.action != htm::ConflictManager::Action::kProceed) {
    // Non-transactional requesters can only stall; the retry interval for a
    // boundary-merged request is the next boundary.
    retry_[to].push_back(m);
    return;
  }

  auto& vm = own.htm->vm();
  Addr target = m.addr;
  Cycle extra = 0;
  Cycle extra_if_l1_hit = 0;
  if (!vm.loads_in_place()) {
    const htm::LoadAction act = vm.resolve_load(m.core, nullptr, m.addr);
    target = act.target;
    extra = act.extra;
    extra_if_l1_hit = act.extra_if_l1_hit;
  }
  const mem::AccessOutcome out = own.mem->access(m.core, target, false);
  m.aw->value = own.mem->load_word(target);
  const Cycle lat = out.latency + extra + (out.l1_hit ? extra_if_l1_hit : 0);

  // Conservative timing: the request is charged as if it reached the owner
  // exactly at the boundary (one hop there), was serviced, and travelled
  // one hop back. Stalled windows are naturally included: the requester
  // resumes after the boundary at which the conflict finally cleared.
  const std::uint32_t S = map_.shards;
  const Cycle resume_t = boundary_ +
                         hop_[static_cast<std::size_t>(from) * S + to] + lat +
                         hop_[static_cast<std::size_t>(to) * S + from];
  breakdowns_[m.core].add(Bucket::kNoTrans, resume_t - m.post_cycle);
  domains_[from].sched->resume_at(resume_t, m.h);
}

}  // namespace suvtm::sim
