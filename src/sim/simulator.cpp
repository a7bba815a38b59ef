#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "vm/suv_vm.hpp"

namespace suvtm::sim {

void Simulator::build_domain(Domain& d, CoreRange cores) {
  d.mem = std::make_unique<mem::MemorySystem>(cfg_.mem);
  d.htm = std::make_unique<htm::HtmSystem>(
      cfg_, *d.mem, make_version_manager(cfg_, *d.mem, cores));
  if (cfg_.check.enabled) {
    d.checker = std::make_unique<check::Checker>(cfg_, *d.mem, *d.htm);
    d.htm->set_checker(d.checker.get());
  }
  if (cfg_.obs.enabled()) {
    d.recorder = std::make_unique<obs::Recorder>(cfg_.obs, cfg_.mem.num_cores);
    d.sched.set_obs(d.recorder.get());
    d.htm->set_obs(d.recorder.get());
    d.mem->set_obs(d.recorder.get());

    // Occupancy gauges, sampled every obs::Recorder::kSampleIntervalEvents
    // scheduler events. Everything read here is this domain's own
    // deterministic state, so the series are reproducible across host job
    // and shard-thread counts.
    vm::SuvVm* suvvm = suv_backend(d.htm->vm());
    htm::HtmSystem* htm = d.htm.get();
    mem::MemorySystem* mem = d.mem.get();
    const std::uint32_t cores = cfg_.mem.num_cores;
    d.recorder->set_sampler([htm, mem, suvvm, cores](obs::Metrics& m,
                                                     Cycle t) {
      m.sample(obs::Series::kSuspendedTxns, t, htm->suspended_count());
      m.sample(obs::Series::kDirTracked, t, mem->directory().tracked_lines());
      if (suvvm != nullptr) {
        m.sample(obs::Series::kRedirectEntries, t,
                 suvvm->table().total_entries());
        std::uint64_t pool_lines = 0;
        for (CoreId c = 0; c < cores; ++c) {
          pool_lines += suvvm->pool(c).lines_in_use();
        }
        m.sample(obs::Series::kPoolLines, t, pool_lines);
      }
    });
  }
}

namespace {

[[noreturn]] void invalid(const char* field, const char* why) {
  throw std::invalid_argument(std::string("invalid SimConfig: ") + field +
                              " " + why);
}

void check_pow2(std::uint32_t v, const char* field) {
  if (!std::has_single_bit(v)) invalid(field, "must be a power of two");
}

void check_hashes(std::uint32_t v, const char* field) {
  if (v < 1 || v > 8) invalid(field, "must be in 1..8");
}

void check_cache(std::uint32_t bytes, std::uint32_t assoc,
                 const char* assoc_field, const char* bytes_field) {
  if (assoc == 0) invalid(assoc_field, "must be nonzero");
  if (!std::has_single_bit(bytes / kLineBytes / assoc)) {
    invalid(bytes_field, "must give a nonzero power-of-two set count");
  }
}

}  // namespace

void SimConfig::validate() const {
  if (mem.num_cores > 64) {
    invalid("mem.num_cores", "must be at most 64 (conflict masks are 64-bit)");
  }
  if (mem.mesh_dim == 0) invalid("mem.mesh_dim", "must be nonzero");
  check_cache(mem.l1_bytes, mem.l1_assoc, "mem.l1_assoc", "mem.l1_bytes");
  check_cache(mem.l2_bytes, mem.l2_assoc, "mem.l2_assoc", "mem.l2_bytes");
  check_pow2(htm.signature_bits, "htm.signature_bits");
  check_hashes(htm.signature_hashes, "htm.signature_hashes");
  check_pow2(suv.summary_signature_bits, "suv.summary_signature_bits");
  check_hashes(suv.summary_signature_hashes, "suv.summary_signature_hashes");
  if (suv.l2_table_assoc == 0) invalid("suv.l2_table_assoc", "must be nonzero");
  if (mem.num_cores % std::max<std::uint32_t>(1, pdes.shards) != 0) {
    invalid("pdes.shards",
            "must divide mem.num_cores (cores partition into equal "
            "contiguous blocks)");
  }
}

Simulator::Simulator(const SimConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  const std::uint32_t shards = std::max<std::uint32_t>(1, cfg_.pdes.shards);
  map_.shards = shards;
  map_.cores_per_shard = cfg_.mem.num_cores / shards;

  domains_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    // lint: allow(alloc-in-loop) -- one-time construction, not a sim path
    domains_.push_back(std::make_unique<Domain>());
    build_domain(*domains_.back(),
                 CoreRange{s * map_.cores_per_shard, map_.cores_per_shard});
  }
  if (shards > 1) {
    boxes_ = std::make_unique<Mailboxes>(shards);
    ports_.resize(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      ports_[s] = RemotePort{boxes_.get(), &map_, s};
    }
  }

  breakdowns_.resize(cfg_.mem.num_cores);
  contexts_.reserve(cfg_.mem.num_cores);
  for (CoreId c = 0; c < cfg_.mem.num_cores; ++c) {
    Domain& d = *domains_[map_.shard_of_core(c)];
    const RemotePort* port =
        shards > 1 ? &ports_[map_.shard_of_core(c)] : nullptr;
    // lint: allow(alloc-in-loop) -- one-time construction, not a sim path
    contexts_.push_back(std::make_unique<ThreadContext>(
        c, cfg_, d.sched, *d.mem, *d.htm, breakdowns_[c],
        cfg_.seed * 0x100001b3ull + c, d.checker.get(), d.recorder.get(),
        port));
  }
}

Barrier& Simulator::make_barrier(std::uint32_t parties) {
  if (map_.shards > 1) {
    throw std::logic_error(
        "make_barrier(parties) is ambiguous on a sharded machine: barriers "
        "live on one domain's scheduler -- use make_barrier(parties, home) "
        "with cores of a single shard");
  }
  return make_barrier(parties, /*home=*/0);
}

Barrier& Simulator::make_barrier(std::uint32_t parties, CoreId home) {
  Domain& d = *domains_[map_.shard_of_core(home)];
  barriers_.push_back(std::make_unique<Barrier>(d.sched, parties));
  return *barriers_.back();
}

void Simulator::spawn(CoreId c, ThreadTask task) {
  auto s = std::make_unique<Spawned>(Spawned{std::move(task), false, nullptr});
  auto h = s->task.prepare(&s->done, &s->error);
  Scheduler& sched = domains_[map_.shard_of_core(c)]->sched;
  // Stagger thread starts by one cycle for a deterministic, realistic ramp
  // (by global core id, so the ramp matches the monolithic machine's).
  sched.resume_at(sched.now() + c, h);
  threads_.push_back(std::move(s));
}

void Simulator::run() {
  // Snapshot the workload's built image before the first simulated event;
  // each checker's end-of-run sweep diffs untouched words against it.
  for (auto& d : domains_) {
    if (d->checker) d->checker->on_run_start();
  }

  bool finished;
  if (map_.shards == 1) {
    finished = domains_[0]->sched.run(cfg_.max_cycles);
  } else {
    std::vector<DomainPort> ports;
    ports.reserve(domains_.size());
    for (auto& d : domains_) {
      ports.push_back(DomainPort{&d->sched, d->mem.get(), d->htm.get()});
    }
    ShardRuntime rt(cfg_, map_, std::move(ports), *boxes_,
                    breakdowns_.data());
    finished = rt.run(cfg_.max_cycles);
    pdes_profile_ = rt.profile();
    // A domain whose scheduler threw (checker guard, internal error) mirrors
    // the serial path's direct propagation out of Scheduler::run.
    rt.rethrow_domain_error();
  }

  for (auto& t : threads_) {
    if (t->error) std::rethrow_exception(t->error);
  }
  if (!finished) {
    throw std::runtime_error("simulation exceeded max_cycles limit");
  }
  for (auto& t : threads_) {
    if (!t->done) {
      throw std::runtime_error(
          "simulated thread never finished (deadlock in workload?)");
    }
  }
  // Every thread ran to completion: drain the oracles, replay each domain's
  // history serially, and run the structural audits, in domain order.
  // Throws CheckFailure on any violation.
  for (auto& d : domains_) {
    if (d->checker) d->checker->finalize();
  }
}

Cycle Simulator::makespan() const {
  Cycle m = 0;
  for (const auto& d : domains_) m = std::max(m, d->sched.now());
  return m;
}

std::uint64_t Simulator::events_processed() const {
  std::uint64_t n = 0;
  for (const auto& d : domains_) n += d->sched.events_processed();
  return n;
}

Breakdown Simulator::total_breakdown() const {
  Breakdown out;
  for (const auto& b : breakdowns_) out += b;
  return out;
}

htm::HtmStats Simulator::total_htm_stats() const {
  htm::HtmStats out;
  for (const auto& d : domains_) htm::accumulate(out, d->htm->stats());
  return out;
}

obs::MetricsSnapshot Simulator::harvest_metrics() const {
  if (!domains_[0]->recorder) return {};
  obs::MetricsSnapshot out = obs::snapshot(domains_[0]->recorder->metrics());
  if (map_.shards == 1) return out;

  // Scalars and histograms sum by name (obs::merge); occupancy series are
  // per-domain gauges, so concatenate each name's points in domain order
  // and order them by cycle (stable: equal-cycle points keep domain order).
  std::vector<obs::SeriesSnapshot> series = std::move(out.series);
  for (std::uint32_t s = 1; s < map_.shards; ++s) {
    obs::MetricsSnapshot snap =
        obs::snapshot(domains_[s]->recorder->metrics());
    for (obs::SeriesSnapshot& ss : snap.series) {
      auto it = std::find_if(
          series.begin(), series.end(),
          [&](const obs::SeriesSnapshot& have) { return have.name == ss.name; });
      if (it == series.end()) {
        series.push_back(std::move(ss));
      } else {
        it->points.insert(it->points.end(), ss.points.begin(),
                          ss.points.end());
      }
    }
    snap.series.clear();
    obs::merge(out, snap);
  }
  std::sort(series.begin(), series.end(),
            [](const obs::SeriesSnapshot& a, const obs::SeriesSnapshot& b) {
              return a.name < b.name;
            });
  for (obs::SeriesSnapshot& ss : series) {
    std::stable_sort(ss.points.begin(), ss.points.end(),
                     [](const obs::SeriesPoint& a, const obs::SeriesPoint& b) {
                       return a.t < b.t;
                     });
  }
  out.series = std::move(series);
  return out;
}

obs::TraceData Simulator::take_trace() {
  if (!domains_[0]->recorder) return {};
  obs::TraceData out = domains_[0]->recorder->take_trace();
  if (map_.shards == 1) return out;

  for (std::uint32_t s = 1; s < map_.shards; ++s) {
    obs::TraceData t = domains_[s]->recorder->take_trace();
    out.events.insert(out.events.end(), t.events.begin(), t.events.end());
    out.dropped += t.dropped;
  }
  // One canonical stream: (cycle, core) ordering, with a stable sort so
  // equal keys keep each domain's deterministic emission order.
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     return a.ts != b.ts ? a.ts < b.ts : a.core < b.core;
                   });
  return out;
}

}  // namespace suvtm::sim
