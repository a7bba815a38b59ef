// Simulator facade: owns one *domain* (scheduler + memory system + HTM
// system + optional checker/recorder) per shard -- one domain total in the
// classic monolithic configuration -- plus one ThreadContext per core; runs
// spawned thread coroutines to completion.
//
// cfg.pdes.shards == 1 (the default) is exactly the historical machine:
// every accessor below without a domain index refers to domain 0, which is
// then the whole simulator. Sharded machines (shards > 1) are simulated by
// the conservative-PDES runtime in sim/shard.hpp; the indexed accessors and
// the merged harvest helpers exist for that case.
#pragma once

#include <exception>
#include <memory>
#include <vector>

#include "check/check.hpp"
#include "common/types.hpp"
#include "htm/htm_system.hpp"
#include "mem/memory_system.hpp"
#include "obs/recorder.hpp"
#include "sim/barrier.hpp"
#include "sim/breakdown.hpp"
#include "sim/config.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"
#include "sim/task.hpp"
#include "sim/thread_context.hpp"

namespace suvtm::vm {
class SuvVm;
}  // namespace suvtm::vm

namespace suvtm::sim {

class Simulator {
 public:
  explicit Simulator(const SimConfig& cfg);

  const SimConfig& config() const { return cfg_; }
  std::uint32_t num_cores() const { return cfg_.mem.num_cores; }
  std::uint32_t num_domains() const { return map_.shards; }
  const ShardMap& shard_map() const { return map_; }

  Scheduler& scheduler(std::uint32_t domain = 0) {
    return domains_[domain]->sched;
  }
  mem::MemorySystem& mem(std::uint32_t domain = 0) {
    return *domains_[domain]->mem;
  }
  htm::HtmSystem& htm(std::uint32_t domain = 0) {
    return *domains_[domain]->htm;
  }
  ThreadContext& context(CoreId c) { return *contexts_[c]; }

  /// The domain's correctness checker, or nullptr when checking is disabled
  /// (cfg.check.enabled, defaulted from the SUVTM_CHECK env var).
  check::Checker* checker(std::uint32_t domain = 0) {
    return domains_[domain]->checker.get();
  }

  /// The domain's observability recorder, or nullptr when cfg.obs asked for
  /// neither tracing nor metrics.
  obs::Recorder* recorder(std::uint32_t domain = 0) {
    return domains_[domain]->recorder.get();
  }
  const obs::Recorder* recorder(std::uint32_t domain = 0) const {
    return domains_[domain]->recorder.get();
  }

  /// Create a barrier owned by this simulator (lives until destruction).
  /// Barriers live on one domain's scheduler, so on a sharded machine the
  /// caller must say which cores rendezvous: the overload without a home
  /// core throws std::logic_error when shards > 1.
  Barrier& make_barrier(std::uint32_t parties);
  /// Barrier homed on `home`'s domain; every arriving core must belong to
  /// that same domain (sharded workloads synchronize shard-locally).
  Barrier& make_barrier(std::uint32_t parties, CoreId home);

  /// Register a thread coroutine for core `c` (at most one per core).
  void spawn(CoreId c, ThreadTask task);

  /// Run until every spawned thread finishes. Throws if a thread escaped an
  /// exception or the cycle limit was exceeded.
  void run();

  /// Total simulated time: the cycle of the last processed event (the
  /// latest domain clock on a sharded machine).
  Cycle makespan() const;

  /// Simulated events processed, summed over domains.
  std::uint64_t events_processed() const;

  const Breakdown& breakdown(CoreId c) const { return breakdowns_[c]; }
  Breakdown total_breakdown() const;

  /// HTM stats summed over domains (== domain 0's stats when shards == 1).
  htm::HtmStats total_htm_stats() const;

  /// Host-side word read that follows any live version-management
  /// redirection (SUV global entries), routed to the domain owning `a`.
  /// Use this -- not the raw backing store -- for post-run verification.
  std::uint64_t read_word_resolved(Addr a) {
    Domain& d = *domains_[map_.shard_of_addr(a)];
    return d.mem->load_word(d.htm->vm().debug_resolve(kNoCore, a));
  }

  /// Host-side functional word write (workload build phase), routed to the
  /// domain owning `a`.
  void poke_word(Addr a, std::uint64_t v) {
    domains_[map_.shard_of_addr(a)]->mem->store_word(a, v);
  }

  /// Metrics snapshot across domains: exactly snapshot(recorder->metrics())
  /// when shards == 1; on a sharded machine, scalars and histograms sum,
  /// and each occupancy series concatenates the per-domain points in domain
  /// order, stably sorted by cycle. Empty when metrics are off.
  obs::MetricsSnapshot harvest_metrics() const;

  /// Trace across domains: exactly recorder->take_trace() when shards == 1;
  /// on a sharded machine, the per-domain logs merge into one stream stably
  /// sorted by (cycle, core). Empty when tracing is off.
  obs::TraceData take_trace();

 private:
  /// One shard's complete vertical slice. Domains share no mutable state;
  /// that isolation -- not any locking -- is what lets the PDES runtime run
  /// them on separate host threads with bit-identical results.
  struct Domain {
    Scheduler sched;
    std::unique_ptr<mem::MemorySystem> mem;
    std::unique_ptr<htm::HtmSystem> htm;
    std::unique_ptr<check::Checker> checker;
    std::unique_ptr<obs::Recorder> recorder;
  };

  void build_domain(Domain& d);

  SimConfig cfg_;
  ShardMap map_;
  std::vector<std::unique_ptr<Domain>> domains_;
  std::unique_ptr<Mailboxes> boxes_;  // nullptr when shards == 1
  std::vector<RemotePort> ports_;     // per shard; empty when shards == 1
  std::vector<Breakdown> breakdowns_;
  std::vector<std::unique_ptr<ThreadContext>> contexts_;
  std::vector<std::unique_ptr<Barrier>> barriers_;

  struct Spawned {
    ThreadTask task;
    bool done = false;
    std::exception_ptr error;
  };
  std::vector<std::unique_ptr<Spawned>> threads_;
};

/// Construct the version manager for `cfg.scheme` (defined in vm/factory.cpp).
std::unique_ptr<htm::VersionManager> make_version_manager(
    const SimConfig& cfg, mem::MemorySystem& mem);

/// The SUV version manager inside `vm`: `vm` itself under SUV-TM, DynTM's
/// backend under DynTM+SUV, nullptr under every other scheme (defined in
/// vm/factory.cpp).
vm::SuvVm* suv_backend(htm::VersionManager& vm);

}  // namespace suvtm::sim
