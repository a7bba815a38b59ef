// bayes -- STAMP's Bayesian network structure learner (paper Table IV:
// length 43K, HIGH contention). Few, very coarse transactions: scoring a
// candidate edge reads a large slice of the shared sufficient-statistics
// table plus two adjacency rows, then commits an adjacency update and score
// adjustments. Concurrent learners frequently touch overlapping rows.
#include <stdexcept>

#include "common/rng.hpp"
#include "stamp/apps.hpp"
#include "stamp/sim_alloc.hpp"

namespace suvtm::stamp {
namespace {

class Bayes final : public Workload {
 public:
  static constexpr std::uint64_t kVars = 48;

  void build(sim::Simulator& sim, const SuiteParams& p) override {
    threads_ = sim.num_cores();
    txns_per_thread_ = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(10.0 * p.scale));
    data_lines_ = std::max<std::uint64_t>(
        512, static_cast<std::uint64_t>(4096.0 * p.scale));
    seed_ = p.seed ^ 0x626179657ull;

    SimAllocator alloc;
    adjacency_ = alloc.alloc(kVars * kVars * kWordBytes, kLineBytes);
    scores_ = alloc.alloc_lines(kVars);
    data_ = alloc.alloc_lines(data_lines_);
    edges_added_addr_ = alloc.alloc_lines(threads_);

    auto& bs = sim.mem().backing();
    Rng rng(seed_);
    for (std::uint64_t i = 0; i < data_lines_ * kWordsPerLine; ++i) {
      bs.store(data_ + i * kWordBytes, rng.below(16));
    }

    bar_ = &sim.make_barrier(threads_);
    for (CoreId c = 0; c < threads_; ++c) {
      sim.spawn(c, worker(sim.context(c)));
    }
  }

  void verify(sim::Simulator& sim) override {
    std::uint64_t edges = 0;
    for (std::uint64_t i = 0; i < kVars * kVars; ++i) {
      edges += sim.read_word_resolved(adjacency_ + i * kWordBytes) != 0 ? 1 : 0;
    }
    std::uint64_t reported = 0;
    for (std::uint32_t c = 0; c < threads_; ++c) {
      reported +=
          sim.read_word_resolved(edges_added_addr_ + static_cast<Addr>(c) * kLineBytes);
    }
    if (edges != reported) {
      throw std::runtime_error("bayes: adjacency edges != reported additions");
    }
  }

 private:
  sim::ThreadTask worker(sim::ThreadContext& tc) {
    const CoreId c = tc.core();
    Rng rng(seed_ + 17 * (c + 1));
    const Addr my_edges =
        edges_added_addr_ + static_cast<Addr>(c) * kLineBytes;
    co_await tc.barrier(*bar_);

    for (std::uint64_t i = 0; i < txns_per_thread_; ++i) {
      const std::uint64_t a = rng.below(kVars);
      const std::uint64_t b = (a + 1 + rng.below(kVars - 1)) % kVars;
      const bool huge = rng.chance(0.08);
      const std::uint64_t scan_lines = huge ? 620 : 128;
      const std::uint64_t scan_start = rng.below(data_lines_);
      co_await tc.compute(400);  // candidate generation

      co_await atomically(tc, /*site=*/1,
                          [&](sim::ThreadContext& t) -> sim::Task<void> {
        // Score the candidate edge against the sufficient statistics.
        std::uint64_t score = 0;
        for (std::uint64_t l = 0; l < scan_lines; ++l) {
          const std::uint64_t line = (scan_start + l) % data_lines_;
          score += co_await t.load(data_ + line * kLineBytes);
          if ((l & 7) == 7) co_await t.compute(8);
        }
        // Read both adjacency rows (parent-set consistency check).
        for (std::uint64_t v = 0; v < kVars; v += kWordsPerLine) {
          score += co_await t.load(row(a) + v * kWordBytes);
          score += co_await t.load(row(b) + v * kWordBytes);
        }
        const Addr cell = row(a) + b * kWordBytes;
        const std::uint64_t existing = co_await t.load(cell);
        if (existing == 0) {
          co_await t.store(cell, 1 + (score % 7));
          // Update both endpoints' score lines plus a scatter of writes
          // (the huge case models a reparenting cascade).
          const std::uint64_t writes = huge ? 520 : 12;
          for (std::uint64_t w = 0; w < writes; ++w) {
            const std::uint64_t line = (scan_start + w * 3) % data_lines_;
            const Addr sa = data_ + line * kLineBytes + 7 * kWordBytes;
            const std::uint64_t v = co_await t.load(sa);
            co_await t.store(sa, v);  // recompute-in-place statistic
          }
          const std::uint64_t sa = co_await t.load(scores_ + a * kLineBytes);
          co_await t.store(scores_ + a * kLineBytes, sa + score % 13);
          const std::uint64_t sb = co_await t.load(scores_ + b * kLineBytes);
          co_await t.store(scores_ + b * kLineBytes, sb + score % 11);
          const std::uint64_t n = co_await t.load(my_edges);
          co_await t.store(my_edges, n + 1);
        }
      });
    }
    co_await tc.barrier(*bar_);
  }

  Addr row(std::uint64_t v) const {
    return adjacency_ + v * kVars * kWordBytes;
  }

  std::uint32_t threads_ = 0;
  std::uint64_t txns_per_thread_ = 0;
  std::uint64_t data_lines_ = 0;
  std::uint64_t seed_ = 0;
  Addr adjacency_ = 0;
  Addr scores_ = 0;
  Addr data_ = 0;
  Addr edges_added_addr_ = 0;
  sim::Barrier* bar_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_bayes() { return std::make_unique<Bayes>(); }

}  // namespace suvtm::stamp
