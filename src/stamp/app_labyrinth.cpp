// labyrinth -- STAMP's maze router (paper Table IV: length 317K, HIGH
// contention; the coarsest-grained application). Each transaction claims an
// entire path of grid cells: hundreds of reads and writes, so write sets
// routinely exceed the L1 (FasTM degenerates) and occasionally exceed the
// 512-entry first-level redirect table (Table V's rare SUV overflow).
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "stamp/apps.hpp"
#include "stamp/sim_alloc.hpp"

namespace suvtm::stamp {
namespace {

class Labyrinth final : public Workload {
 public:
  void build(sim::Simulator& sim, const SuiteParams& p) override {
    threads_ = sim.num_cores();
    cells_ = std::max<std::uint64_t>(
        2048, static_cast<std::uint64_t>(12288.0 * p.scale));
    paths_per_thread_ = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(8.0 * p.scale));
    seed_ = p.seed ^ 0x6c616279ull;

    SimAllocator alloc;
    grid_ = alloc.alloc(cells_ * kWordBytes, kLineBytes);
    claimed_ = alloc.alloc_lines(threads_);

    bar_ = &sim.make_barrier(threads_);
    for (CoreId c = 0; c < threads_; ++c) {
      sim.spawn(c, worker(sim.context(c)));
    }
  }

  void verify(sim::Simulator& sim) override {
    std::uint64_t grid_claimed = 0;
    for (std::uint64_t i = 0; i < cells_; ++i) {
      if (sim.read_word_resolved(grid_ + i * kWordBytes) != 0) ++grid_claimed;
    }
    std::uint64_t reported = 0;
    for (std::uint32_t c = 0; c < threads_; ++c) {
      reported += sim.read_word_resolved(claimed_ + static_cast<Addr>(c) * kLineBytes);
    }
    // Isolation guarantees each cell is claimed exactly once: the per-thread
    // claim counters must equal the number of non-zero grid cells.
    if (grid_claimed != reported) {
      throw std::runtime_error("labyrinth: double-claimed grid cells");
    }
  }

 private:
  /// Build a candidate path: mostly a dense random walk (neighbouring cells
  /// share lines); a 5% minority are "global" routes that stride a full
  /// line per cell and run long enough to overflow the redirect table.
  std::vector<std::uint64_t> make_path(Rng& rng) const {
    std::vector<std::uint64_t> path;
    const bool mega = rng.chance(0.05);
    const std::uint64_t len = mega ? 640 + rng.below(128)
                                   : 48 + rng.below(64);
    const std::uint64_t stride = mega ? kWordsPerLine : 1;
    std::uint64_t pos = rng.below(cells_);
    path.reserve(len);
    for (std::uint64_t i = 0; i < len; ++i) {
      path.push_back(pos);
      const std::uint64_t step =
          stride * (1 + rng.below(3));  // forward-biased walk
      pos = (pos + step) % cells_;
    }
    return path;
  }

  sim::ThreadTask worker(sim::ThreadContext& tc) {
    const CoreId c = tc.core();
    Rng rng(seed_ + c);
    const Addr my_claimed = claimed_ + static_cast<Addr>(c) * kLineBytes;
    co_await tc.barrier(*bar_);

    for (std::uint64_t pidx = 0; pidx < paths_per_thread_; ++pidx) {
      const auto path = make_path(rng);
      const std::uint64_t path_id = (c + 1) * 1000 + pidx + 1;
      co_await tc.compute(200);  // route planning (grid copy in STAMP)

      co_await atomically(tc, /*site=*/1,
                          [&](sim::ThreadContext& t) -> sim::Task<void> {
        std::uint64_t claimed_now = 0;
        for (std::uint64_t cell : path) {
          const Addr a = grid_ + cell * kWordBytes;
          const std::uint64_t owner = co_await t.load(a);
          if (owner != 0) continue;  // occupied: route around it
          co_await t.store(a, path_id);
          ++claimed_now;
        }
        const std::uint64_t n = co_await t.load(my_claimed);
        co_await t.store(my_claimed, n + claimed_now);
      });
    }
    co_await tc.barrier(*bar_);
  }

  std::uint32_t threads_ = 0;
  std::uint64_t cells_ = 0;
  std::uint64_t paths_per_thread_ = 0;
  std::uint64_t seed_ = 0;
  Addr grid_ = 0;
  Addr claimed_ = 0;
  sim::Barrier* bar_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_labyrinth() {
  return std::make_unique<Labyrinth>();
}

}  // namespace suvtm::stamp
