// vacation -- STAMP's travel reservation system (paper Table IV: length
// 2.1K, LOW contention). Each client transaction queries several resource
// tables (flights, rooms, cars) and reserves the cheapest available,
// updating the customer's record. Tables are large, so conflicts are rare.
#include <stdexcept>

#include "common/rng.hpp"
#include "stamp/apps.hpp"
#include "stamp/sim_alloc.hpp"
#include "stamp/sim_ds.hpp"

namespace suvtm::stamp {
namespace {

class Vacation final : public Workload {
 public:
  static constexpr std::uint32_t kTables = 3;  // flights, rooms, cars
  static constexpr std::uint64_t kInitialCapacity = 100;
  static constexpr std::uint32_t kQueriesPerTask = 8;

  void build(sim::Simulator& sim, const SuiteParams& p) override {
    threads_ = sim.num_cores();
    relations_ = std::max<std::uint64_t>(
        256, static_cast<std::uint64_t>(4096.0 * p.scale));
    tasks_per_thread_ = std::max<std::uint64_t>(
        8, static_cast<std::uint64_t>(64.0 * p.scale));
    seed_ = p.seed ^ 0x766163ull;

    SimAllocator alloc;
    auto& bs = sim.mem().backing();
    for (std::uint32_t t = 0; t < kTables; ++t) {
      tables_[t] = SimHashMap(alloc, relations_ / 2, relations_ + 16, threads_);
      for (std::uint64_t r = 1; r <= relations_; ++r) {
        tables_[t].preload(bs, r, kInitialCapacity);
      }
    }
    // Sized with slack: aborted attempts leak arena nodes (DESIGN.md).
    customers_ = SimHashMap(alloc, relations_ / 2,
                            tasks_per_thread_ * 256 + 16, threads_);
    // One reservation counter line per thread.
    counters_ = alloc.alloc_lines(threads_);

    bar_ = &sim.make_barrier(threads_);
    for (CoreId c = 0; c < threads_; ++c) {
      sim.spawn(c, worker(sim.context(c)));
    }
  }

  void verify(sim::Simulator& sim) override {
    const auto load = [&](Addr a) { return sim.read_word_resolved(a); };
    // Conservation: capacity removed from the tables equals the successful
    // reservations recorded per thread.
    std::uint64_t reserved = 0;
    for (std::uint32_t c = 0; c < threads_; ++c) {
      reserved += load(counters_ + static_cast<Addr>(c) * kLineBytes);
    }
    std::uint64_t removed = 0;
    for (std::uint32_t t = 0; t < kTables; ++t) {
      for (std::uint64_t r = 1; r <= relations_; ++r) {
        const auto v = tables_[t].peek(load, r);
        if (!v) throw std::runtime_error("vacation: relation disappeared");
        removed += kInitialCapacity - *v;
      }
    }
    if (removed != reserved) {
      throw std::runtime_error("vacation: capacity leak (isolation broken)");
    }
  }

 private:
  sim::ThreadTask worker(sim::ThreadContext& tc) {
    co_await tc.barrier(*bar_);
    const CoreId c = tc.core();
    Rng rng(seed_ + c);
    const Addr my_counter = counters_ + static_cast<Addr>(c) * kLineBytes;

    for (std::uint64_t task = 0; task < tasks_per_thread_; ++task) {
      // Choose the resources to query before the transaction (STAMP builds
      // the task description up front).
      std::uint64_t ids[kQueriesPerTask];
      std::uint32_t tabs[kQueriesPerTask];
      for (std::uint32_t q = 0; q < kQueriesPerTask; ++q) {
        ids[q] = 1 + rng.below(relations_);
        tabs[q] = static_cast<std::uint32_t>(rng.below(kTables));
      }
      const std::uint64_t customer = 1 + rng.below(relations_);

      co_await atomically(tc, /*site=*/1,
                          [&](sim::ThreadContext& t) -> sim::Task<void> {
        // Query phase: find the best available resource per table.
        std::uint64_t best_id = 0;
        std::uint32_t best_tab = 0;
        std::uint64_t best_avail = 0;
        for (std::uint32_t q = 0; q < kQueriesPerTask; ++q) {
          const auto avail = co_await tables_[tabs[q]].find(t, ids[q]);
          co_await t.compute(6);
          if (avail && *avail > best_avail) {
            best_avail = *avail;
            best_id = ids[q];
            best_tab = tabs[q];
          }
        }
        if (best_avail == 0) co_return;  // nothing available
        // Reserve: decrement capacity, record with the customer.
        co_await tables_[best_tab].update(t, best_id, best_avail - 1);
        co_await customers_.insert(t, (customer << 20) ^ (task << 4) ^ (c + 1),
                                   best_id);
        const std::uint64_t n = co_await t.load(my_counter);
        co_await t.store(my_counter, n + 1);
      });
      co_await tc.compute(20);
    }
    co_await tc.barrier(*bar_);
  }

  std::uint32_t threads_ = 0;
  std::uint64_t relations_ = 0;
  std::uint64_t tasks_per_thread_ = 0;
  std::uint64_t seed_ = 0;
  SimHashMap tables_[kTables];
  SimHashMap customers_;
  Addr counters_ = 0;
  sim::Barrier* bar_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_vacation() {
  return std::make_unique<Vacation>();
}

}  // namespace suvtm::stamp
