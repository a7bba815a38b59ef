// ssca2 -- STAMP's graph kernel (paper Table IV: length 21, LOW contention).
// Tiny transactions append an edge to a node's adjacency slot set; with a
// large node count two threads rarely touch the same node.
#include <stdexcept>

#include "common/rng.hpp"
#include "stamp/apps.hpp"
#include "stamp/sim_alloc.hpp"

namespace suvtm::stamp {
namespace {

class Ssca2 final : public Workload {
 public:
  static constexpr std::uint32_t kMaxDegree = 7;  // degree word + 7 slots/line

  void build(sim::Simulator& sim, const SuiteParams& p) override {
    threads_ = sim.num_cores();
    nodes_ = std::max<std::uint64_t>(
        1024, static_cast<std::uint64_t>(8192.0 * p.scale));
    edges_per_thread_ = std::max<std::uint64_t>(
        16, static_cast<std::uint64_t>(256.0 * p.scale));
    seed_ = p.seed ^ 0x7373636132ull;

    SimAllocator alloc;
    // One line per node: [degree][slot0..slot6].
    graph_ = alloc.alloc_lines(nodes_);

    bar_ = &sim.make_barrier(threads_);
    for (CoreId c = 0; c < threads_; ++c) {
      sim.spawn(c, worker(sim.context(c)));
    }
  }

  void verify(sim::Simulator& sim) override {
    std::uint64_t total_degree = 0;
    for (std::uint64_t n = 0; n < nodes_; ++n) {
      total_degree += sim.read_word_resolved(graph_ + n * kLineBytes);
    }
    if (total_degree != edges_added_) {
      throw std::runtime_error("ssca2: degree sum != edges added");
    }
  }

 private:
  sim::ThreadTask worker(sim::ThreadContext& tc) {
    co_await tc.barrier(*bar_);
    Rng rng(seed_ + tc.core());
    for (std::uint64_t i = 0; i < edges_per_thread_; ++i) {
      const std::uint64_t u = rng.below(nodes_);
      const std::uint64_t v = rng.below(nodes_);
      co_await tc.compute(4);
      bool added = false;
      co_await atomically(tc, /*site=*/1,
                          [&](sim::ThreadContext& t) -> sim::Task<void> {
        added = false;
        const Addr node = graph_ + u * kLineBytes;
        const std::uint64_t deg = co_await t.load(node);
        if (deg < kMaxDegree) {
          co_await t.store(node + (1 + deg) * kWordBytes, v + 1);
          co_await t.store(node, deg + 1);
          added = true;
        }
      });
      if (added) ++edges_added_;
    }
    co_await tc.barrier(*bar_);
  }

  std::uint32_t threads_ = 0;
  std::uint64_t nodes_ = 0;
  std::uint64_t edges_per_thread_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t edges_added_ = 0;  // host-side ground truth
  Addr graph_ = 0;
  sim::Barrier* bar_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_ssca2() { return std::make_unique<Ssca2>(); }

}  // namespace suvtm::stamp
