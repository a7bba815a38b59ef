// Workload framework: the transactional programming interface STAMP-like
// kernels are written against, plus the workload registry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/thread_context.hpp"

namespace suvtm::stamp {

/// Run `body` as a transaction at static site `site`, retrying with
/// randomized exponential backoff until it commits. `body` is invoked fresh
/// for each attempt and must be re-executable (STAMP transaction bodies
/// are). This frame is the transaction's root: an abort anywhere in `body`
/// resumes it at `co_await body(tc)` with the attempt's frames destroyed.
/// Usage:
///
///   co_await atomically(tc, kSiteInsert, [&](sim::ThreadContext& t)
///       -> sim::Task<void> {
///     auto v = co_await t.load(addr);
///     co_await t.store(addr, v + 1);
///   });
template <class F>
sim::Task<void> atomically(sim::ThreadContext& tc, std::uint32_t site, F body) {
  for (;;) {
    co_await tc.tx_begin(site);
    co_await body(tc);
    if (!tc.abort_pending()) co_await tc.tx_commit();
    if (!tc.take_abort()) co_return;
    co_await tc.backoff();
  }
}

/// Suite-wide workload scaling knobs. scale=1.0 is the default benchmark
/// size (small enough for seconds-long runs, large enough to exhibit the
/// paper's contention/overflow behaviour); tests use smaller scales.
struct SuiteParams {
  double scale = 1.0;
  std::uint64_t seed = 42;
};

/// One STAMP-like application. build() allocates the shared simulated-memory
/// state and spawns one worker coroutine per core; the Workload object must
/// outlive Simulator::run().
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Member of the paper's five high-contention/coarse-grained applications.
  virtual bool high_contention() const = 0;
  virtual void build(sim::Simulator& sim, const SuiteParams& p) = 0;

  /// Post-run self-check of application-level invariants (counters add up,
  /// structures consistent). Throws on violation -- transactional isolation
  /// bugs surface here.
  virtual void verify(sim::Simulator& sim) = 0;
};

enum class AppId {
  kBayes,
  kGenome,
  kIntruder,
  kKmeans,
  kLabyrinth,
  kSsca2,
  kVacation,
  kYada,
};

std::unique_ptr<Workload> make_workload(AppId id);
const std::vector<AppId>& all_apps();
const std::vector<AppId>& high_contention_apps();
const char* app_name(AppId id);

}  // namespace suvtm::stamp
