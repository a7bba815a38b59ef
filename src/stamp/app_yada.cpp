// yada -- STAMP's Delaunay mesh refinement (paper Table IV: length 6.8K,
// HIGH contention). A transaction retriangulates the cavity around a bad
// triangle: a medium-sized read neighbourhood, a dozen-line rewrite, and
// occasional very large cavities. Cavities overlap across threads.
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "stamp/apps.hpp"
#include "stamp/sim_alloc.hpp"

namespace suvtm::stamp {
namespace {

class Yada final : public Workload {
 public:
  void build(sim::Simulator& sim, const SuiteParams& p) override {
    threads_ = sim.num_cores();
    triangles_ = std::max<std::uint64_t>(
        512, static_cast<std::uint64_t>(4096.0 * p.scale));
    work_per_thread_ = std::max<std::uint64_t>(
        4, static_cast<std::uint64_t>(24.0 * p.scale));
    seed_ = p.seed ^ 0x79616461ull;

    SimAllocator alloc;
    mesh_ = alloc.alloc_lines(triangles_);  // one line-sized record each
    processed_ = alloc.alloc_lines(threads_);

    bar_ = &sim.make_barrier(threads_);
    for (CoreId c = 0; c < threads_; ++c) {
      sim.spawn(c, worker(sim.context(c)));
    }
  }

  void verify(sim::Simulator& sim) override {
    std::uint64_t processed = 0;
    for (std::uint32_t c = 0; c < threads_; ++c) {
      processed += sim.read_word_resolved(processed_ + static_cast<Addr>(c) * kLineBytes);
    }
    if (processed != threads_ * work_per_thread_) {
      throw std::runtime_error("yada: refinement work count mismatch");
    }
    // Every refined triangle's generation counter must match its refine
    // count word (written together in one transaction).
    for (std::uint64_t t = 0; t < triangles_; ++t) {
      const Addr rec = mesh_ + t * kLineBytes;
      if (sim.read_word_resolved(rec) != sim.read_word_resolved(rec + kWordBytes)) {
        throw std::runtime_error("yada: torn triangle record");
      }
    }
  }

 private:
  sim::ThreadTask worker(sim::ThreadContext& tc) {
    const CoreId c = tc.core();
    Rng rng(seed_ + c);
    const Addr my_processed = processed_ + static_cast<Addr>(c) * kLineBytes;
    co_await tc.barrier(*bar_);

    for (std::uint64_t w = 0; w < work_per_thread_; ++w) {
      const std::uint64_t center = rng.below(triangles_);
      const bool huge_cavity = rng.chance(0.03);
      const std::uint64_t read_span = huge_cavity ? 560 : 36;
      const std::uint64_t write_span = huge_cavity ? 540 : 12;
      co_await tc.compute(80);  // geometric tests before touching the mesh

      co_await atomically(tc, /*site=*/1,
                          [&](sim::ThreadContext& t) -> sim::Task<void> {
        // Read the cavity neighbourhood.
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < read_span; ++i) {
          const std::uint64_t tri = (center + i) % triangles_;
          acc += co_await t.load(mesh_ + tri * kLineBytes);
        }
        co_await t.compute(read_span / 2);
        // Retriangulate: bump generation + refine-count of the inner ring.
        for (std::uint64_t i = 0; i < write_span; ++i) {
          const std::uint64_t tri = (center + i) % triangles_;
          const Addr rec = mesh_ + tri * kLineBytes;
          const std::uint64_t gen = co_await t.load(rec);
          co_await t.store(rec, gen + 1);
          co_await t.store(rec + kWordBytes, gen + 1);
        }
        const std::uint64_t n = co_await t.load(my_processed);
        co_await t.store(my_processed, n + 1);
        (void)acc;
      });
    }
    co_await tc.barrier(*bar_);
  }

  std::uint32_t threads_ = 0;
  std::uint64_t triangles_ = 0;
  std::uint64_t work_per_thread_ = 0;
  std::uint64_t seed_ = 0;
  Addr mesh_ = 0;
  Addr processed_ = 0;
  sim::Barrier* bar_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_yada() { return std::make_unique<Yada>(); }

}  // namespace suvtm::stamp
