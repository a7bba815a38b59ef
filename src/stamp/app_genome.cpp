// genome -- STAMP's gene sequencing (paper Table IV: length 1.7K, HIGH
// contention). Phase 1 deduplicates DNA segments through a shared hash set;
// phase 2 links unique segments into per-bucket sorted chains whose
// traversals build large read sets that overlap across threads.
#include <stdexcept>
#include <unordered_set>

#include "common/rng.hpp"
#include "stamp/apps.hpp"
#include "stamp/sim_alloc.hpp"
#include "stamp/sim_ds.hpp"

namespace suvtm::stamp {
namespace {

class Genome final : public Workload {
 public:
  static constexpr std::uint32_t kChains = 16;

  void build(sim::Simulator& sim, const SuiteParams& p) override {
    threads_ = sim.num_cores();
    segments_per_thread_ = std::max<std::uint64_t>(
        16, static_cast<std::uint64_t>(192.0 * p.scale));
    distinct_ = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(1024.0 * p.scale));
    seed_ = p.seed ^ 0x67656e6full;

    SimAllocator alloc;
    // Deliberately few buckets: long chains create overlapping read sets.
    // Aborted attempts leak arena nodes by design (DESIGN.md): size with
    // a large slack factor -- unwritten sim pages cost no host memory.
    dedup_ = SimHashMap(alloc, 128, segments_per_thread_ * 256 + 16, threads_,
                        /*padded_buckets=*/true);
    for (auto& chain : chains_) {
      chain = SimSortedList(alloc, distinct_ * 64 + 16, threads_);
    }
    done_keys_.resize(threads_);

    bar_ = &sim.make_barrier(threads_);
    for (CoreId c = 0; c < threads_; ++c) {
      sim.spawn(c, worker(sim.context(c)));
    }
  }

  void verify(sim::Simulator& sim) override {
    const auto load = [&](Addr a) { return sim.read_word_resolved(a); };
    // Every distinct inserted key must be in the dedup map exactly once,
    // and in its chain.
    std::unordered_set<std::uint64_t> all;
    for (auto& v : done_keys_) all.insert(v.begin(), v.end());
    // lint: allow(nondet-iteration): membership-only sweep -- every key is
    // checked, the failure message names no key, so order cannot show
    for (std::uint64_t key : all) {
      if (!dedup_.peek(load, key)) {
        throw std::runtime_error("genome: deduplicated segment lost");
      }
    }
    if (inserted_unique_ != all.size()) {
      throw std::runtime_error(
          "genome: duplicate segments slipped through isolation");
    }
  }

 private:
  sim::ThreadTask worker(sim::ThreadContext& tc) {
    const CoreId c = tc.core();
    Rng rng(seed_ + c);
    co_await tc.barrier(*bar_);

    // Phase 1: segment deduplication through the shared hash set.
    std::vector<std::uint64_t> mine;
    for (std::uint64_t i = 0; i < segments_per_thread_; ++i) {
      const std::uint64_t key = 1 + rng.below(distinct_);
      bool fresh = false;
      co_await atomically(tc, /*site=*/1,
                          [&](sim::ThreadContext& t) -> sim::Task<void> {
        fresh = co_await dedup_.insert(t, key, c + 1);
      });
      if (fresh) {
        mine.push_back(key);
        ++inserted_unique_;
      }
      co_await tc.compute(90);  // segment hashing
    }
    done_keys_[c] = mine;
    co_await tc.barrier(*bar_);

    // Phase 2: chain the unique segments into sorted overlap lists. The
    // traversal reads every earlier node, so transactions grow and clash.
    for (std::uint64_t key : mine) {
      co_await atomically(tc, /*site=*/2,
                          [&](sim::ThreadContext& t) -> sim::Task<void> {
        co_await chains_[key % kChains].insert(t, key);
      });
      co_await tc.compute(60);  // overlap matching
    }
    co_await tc.barrier(*bar_);
  }

  std::uint32_t threads_ = 0;
  std::uint64_t segments_per_thread_ = 0;
  std::uint64_t distinct_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t inserted_unique_ = 0;
  SimHashMap dedup_;
  SimSortedList chains_[kChains];
  std::vector<std::vector<std::uint64_t>> done_keys_;
  sim::Barrier* bar_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_genome() { return std::make_unique<Genome>(); }

}  // namespace suvtm::stamp
