// kmeans -- STAMP's clustering kernel (paper Table IV: length 106, LOW
// contention). Threads scan their share of the points non-transactionally,
// then update the chosen cluster's accumulator in a short transaction.
#include <stdexcept>

#include "common/rng.hpp"
#include "stamp/apps.hpp"
#include "stamp/sim_alloc.hpp"

namespace suvtm::stamp {
namespace {

class Kmeans final : public Workload {
 public:
  static constexpr std::uint32_t kClusters = 40;
  static constexpr std::uint32_t kDims = 8;
  static constexpr std::uint32_t kIters = 3;

  void build(sim::Simulator& sim, const SuiteParams& p) override {
    threads_ = sim.num_cores();
    points_per_thread_ = std::max<std::uint64_t>(
        8, static_cast<std::uint64_t>(128.0 * p.scale));

    SimAllocator alloc;
    // Two lines per cluster accumulator: kDims partial sums + a count.
    accum_ = alloc.alloc_lines(kClusters * 2);
    points_ = alloc.alloc(
        threads_ * points_per_thread_ * kDims * kWordBytes, kLineBytes);

    Rng rng(p.seed ^ 0x6b6d65616e73ull);
    auto& bs = sim.mem().backing();
    for (std::uint64_t i = 0; i < threads_ * points_per_thread_ * kDims; ++i) {
      bs.store(points_ + i * kWordBytes, rng.below(1000));
    }

    bar_ = &sim.make_barrier(threads_);
    for (CoreId c = 0; c < threads_; ++c) {
      sim.spawn(c, worker(sim.context(c)));
    }
  }

  void verify(sim::Simulator& sim) override {
    std::uint64_t total = 0;
    for (std::uint32_t cl = 0; cl < kClusters; ++cl) {
      total += sim.read_word_resolved(cluster_base(cl) + kDims * kWordBytes);
    }
    const std::uint64_t expected = threads_ * points_per_thread_ * kIters;
    if (total != expected) {
      throw std::runtime_error("kmeans: accumulator counts lost updates");
    }
  }

 private:
  Addr cluster_base(std::uint32_t cl) const {
    return accum_ + static_cast<Addr>(cl) * 2 * kLineBytes;
  }

  sim::ThreadTask worker(sim::ThreadContext& tc) {
    const CoreId c = tc.core();
    for (std::uint32_t it = 0; it < kIters; ++it) {
      co_await tc.barrier(*bar_);
      for (std::uint64_t i = 0; i < points_per_thread_; ++i) {
        const Addr pt =
            points_ +
            (static_cast<Addr>(c) * points_per_thread_ + i) * kDims * kWordBytes;
        // Distance computation: non-transactional reads plus compute.
        std::uint64_t sum = 0;
        for (std::uint32_t d = 0; d < kDims; ++d) {
          sum += co_await tc.load(pt + d * kWordBytes);
        }
        co_await tc.compute(kClusters * kDims * 2);  // distance to all centers
        const std::uint32_t cl =
            static_cast<std::uint32_t>((sum + it * 7) % kClusters);

        co_await atomically(tc, /*site=*/1,
                            [&](sim::ThreadContext& t) -> sim::Task<void> {
          const Addr base = cluster_base(cl);
          for (std::uint32_t d = 0; d < kDims; ++d) {
            const std::uint64_t v = co_await t.load(base + d * kWordBytes);
            co_await t.store(base + d * kWordBytes, v + (sum % 97));
          }
          const std::uint64_t n =
              co_await t.load(base + kDims * kWordBytes);
          co_await t.store(base + kDims * kWordBytes, n + 1);
        });
      }
    }
    co_await tc.barrier(*bar_);
  }

  std::uint32_t threads_ = 0;
  std::uint64_t points_per_thread_ = 0;
  Addr accum_ = 0;
  Addr points_ = 0;
  sim::Barrier* bar_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_kmeans() { return std::make_unique<Kmeans>(); }

}  // namespace suvtm::stamp
