#include "isolated.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "htm/conflict_manager.hpp"
#include "htm/txn.hpp"
#include "mem/memory_system.hpp"
#include "sim/scheduler.hpp"
#include "suv/redirect_table.hpp"

namespace repobench {

using namespace suvtm;

namespace {

constexpr int kReps = 3;

/// Median over kReps of ns per op of `body(ops)` (one untimed warm call).
template <class F>
double ns_per_op(std::uint64_t ops, F body) {
  body(ops / 4);
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = wall_now();
    body(ops);
    ns.push_back((wall_now() - t0) * 1e9 / static_cast<double>(ops));
  }
  return median(ns);
}

/// Keeps a computed value alive so the optimizer cannot drop the loop.
void keep(std::uint64_t v) {
  static volatile std::uint64_t sink = 0;
  sink = sink + v;
}

std::uint64_t round_count(double v, std::uint64_t lo, std::uint64_t hi) {
  return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(std::lround(v)),
                                   lo, hi);
}

}  // namespace

double sched_ns_per_event(const Shape& s) {
  // `chains` self-rescheduling handlers (one per simulated core), each firing
  // every 1..2*mean_gap cycles: the workload's event density per cycle.
  const std::uint64_t gap = round_count(s.mean_gap, 1, 4096);
  return ns_per_op(2'000'000, [&](std::uint64_t target) {
    sim::Scheduler sched;
    std::uint64_t processed = 0;
    struct Chain {
      sim::Scheduler* s;
      std::uint64_t* processed;
      std::uint64_t limit;
      std::uint64_t x;
      std::uint64_t gap;
      void operator()() {
        if (*processed >= limit) return;
        ++*processed;
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        s->after(1 + (x >> 33) % (2 * gap), Chain{*this});
      }
    };
    for (std::uint32_t i = 0; i < s.chains; ++i) {
      sched.after(i, Chain{&sched, &processed, target,
                           s.seed + 0x9e3779b97f4a7c15ull * (i + 1), gap});
    }
    sched.run(~Cycle{0});
    keep(processed);
  });
}

double mem_ns_per_access(const Shape& s) {
  // Each core re-touches a private 64-line hot set (L1 hits). At the
  // workload's L1 miss rate it touches a shared 64K-line region that fits
  // the L2 (misses that hit the L2, with the invalidations and forwards
  // sharing brings), and at its L2 miss rate a never-touched line.
  mem::MemorySystem ms(s.cfg.mem);
  Rng rng(s.seed);
  const std::uint32_t cores = s.cfg.mem.num_cores;
  constexpr LineAddr kSharedBase = 1ull << 26;
  LineAddr cold = 1ull << 30;
  return ns_per_op(2'000'000, [&](std::uint64_t n) {
    std::uint64_t lat = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const CoreId c = static_cast<CoreId>(i % cores);
      LineAddr l = (static_cast<LineAddr>(c) << 12) + rng.below(64);
      if (rng.chance(s.l1_miss_rate)) {
        l = rng.chance(s.l2_miss_rate) ? cold++
                                       : kSharedBase + rng.below(1u << 16);
      }
      lat += ms.access(c, addr_of_line(l), rng.chance(s.write_frac)).latency;
    }
    keep(lat);
  });
}

double conflict_ns_per_check(const Shape& s) {
  // `live_txns` transactions hold isolation with the workload's footprint;
  // checks come from every core, and a `nack_frac` share of them targets a
  // live write set (the slow path). Wait edges are dropped after each check
  // so the stream stays stationary.
  const std::uint32_t cores = s.cfg.mem.num_cores;
  const auto& hp = s.cfg.htm;
  htm::ConflictManager cm(cores, hp.conflict_policy, hp.signature_bits,
                          hp.signature_hashes);
  std::vector<std::unique_ptr<htm::Txn>> owned;
  std::vector<htm::Txn*> txns;
  for (CoreId c = 0; c < cores; ++c) {
    owned.push_back(
        std::make_unique<htm::Txn>(c, hp.signature_bits, hp.signature_hashes));
    txns.push_back(owned.back().get());
  }
  Rng rng(s.seed);
  const std::uint64_t live = round_count(s.live_txns, 1, cores);
  const std::uint64_t reads = round_count(s.read_lines, 1, 512);
  const std::uint64_t writes = round_count(s.write_lines, 1, 512);
  std::vector<LineAddr> written;
  for (CoreId c = 0; c < live; ++c) {
    htm::Txn& t = *txns[c];
    t.state = htm::TxnState::kRunning;
    t.timestamp = c + 1;
    t.has_timestamp = true;
    cm.set_isolation(c, true);
    for (std::uint64_t i = 0; i < reads; ++i) {
      const LineAddr l = rng.below(1u << 16);
      t.read_sig.add(l);
      if (t.read_lines.insert(l)) cm.note_read(c, l);
    }
    for (std::uint64_t i = 0; i < writes; ++i) {
      const LineAddr l = rng.below(1u << 16);
      t.write_sig.add(l);
      if (t.write_lines.insert(l)) cm.note_write(c, l);
      written.push_back(l);
    }
  }
  return ns_per_op(2'000'000, [&](std::uint64_t n) {
    std::uint64_t stalls = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const CoreId c = static_cast<CoreId>(rng.below(cores));
      const LineAddr l = rng.chance(s.nack_frac)
                             ? written[rng.below(written.size())]
                             : (1ull << 20) + rng.below(1u << 20);
      const auto d = cm.check(c, l, rng.chance(s.write_frac), false, txns);
      stalls += d.action != htm::ConflictManager::Action::kProceed;
      cm.clear_wait(c);
    }
    keep(stalls);
  });
}

double suv_ns_per_lookup(const Shape& s) {
  // `live_entries` published (global) redirect entries. A
  // `lookup_hit_frac` share of lookups names one of them: at the measured
  // table L1 miss rate a random one, otherwise one of the 64 this core named
  // last (so the first-level table hits as often as in the workload). The
  // rest are summary-filtered misses.
  const std::uint32_t cores = s.cfg.mem.num_cores;
  suv::RedirectTable table(s.cfg.suv, cores);
  Rng rng(s.seed);
  const std::uint64_t entries = round_count(s.live_entries, 1, 1u << 16);
  std::vector<LineAddr> lines;
  const LineAddr pool = line_of(kRedirectPoolBase);
  for (std::uint64_t i = 0; lines.size() < entries; ++i) {
    const LineAddr l = rng.below(1u << 22);
    if (table.find(l) != nullptr) continue;
    table.insert_transient(suv::RedirectEntry{
        l, pool + i, suv::EntryState::kTxnRedirect,
        static_cast<CoreId>(i % cores)});
    table.commit_entry(l);
    lines.push_back(l);
  }
  constexpr std::size_t kHot = 64;
  std::vector<std::vector<LineAddr>> hot(cores);
  return ns_per_op(2'000'000, [&](std::uint64_t n) {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const CoreId c = static_cast<CoreId>(rng.below(cores));
      LineAddr l = (1ull << 23) + rng.below(1u << 22);
      if (rng.chance(s.lookup_hit_frac)) {
        std::vector<LineAddr>& h = hot[c];
        if (!h.empty() && !rng.chance(s.table_l1_miss_rate)) {
          l = h[rng.below(h.size())];
        } else {
          l = lines[rng.below(lines.size())];
          if (h.size() < kHot) {
            h.push_back(l);
          } else {
            h[rng.below(kHot)] = l;
          }
        }
      }
      hits += table.lookup(c, l).entry != nullptr;
    }
    keep(hits);
  });
}

}  // namespace repobench
