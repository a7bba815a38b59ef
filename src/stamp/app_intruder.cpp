// intruder -- STAMP's network intrusion detection (paper Table IV: length
// 237, HIGH contention). Packets are pulled off one shared capture queue
// (the classic hot spot), fragments are reassembled in a shared map, and a
// completed flow is removed and counted as scanned.
#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "stamp/apps.hpp"
#include "stamp/sim_alloc.hpp"
#include "stamp/sim_ds.hpp"

namespace suvtm::stamp {
namespace {

class Intruder final : public Workload {
 public:
  static constexpr std::uint32_t kFragmentsPerFlow = 4;

  void build(sim::Simulator& sim, const SuiteParams& p) override {
    threads_ = sim.num_cores();
    flows_ = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(512.0 * p.scale));
    const std::uint64_t packets = flows_ * kFragmentsPerFlow;

    SimAllocator alloc;
    queue_ = SimQueue(alloc, packets + 16);
    // Sized with slack: aborted attempts leak arena nodes (DESIGN.md).
    fragments_ = SimHashMap(alloc, 256, flows_ * 128 + 16, threads_);
    detected_ = alloc.alloc_lines(threads_);

    // Preload the capture queue with an interleaved packet stream
    // (packet = flow_id * 8 + fragment_index + 1).
    seed_ = p.seed ^ 0x696e74ull;
    auto& bs = sim.mem().backing();
    Rng rng(seed_);
    std::vector<std::uint64_t> stream;
    stream.reserve(packets);
    for (std::uint64_t f = 0; f < flows_; ++f) {
      for (std::uint32_t i = 0; i < kFragmentsPerFlow; ++i) {
        stream.push_back(f * 8 + i + 1);
      }
    }
    // Shuffle within a sliding window: fragments of one flow stay close in
    // the stream (as in real capture traces), so different threads handle
    // them concurrently and contend on the flow's reassembly state.
    constexpr std::uint64_t kWindow = 32;
    for (std::uint64_t w = 0; w + 1 < stream.size(); w += kWindow) {
      const std::uint64_t end = std::min(w + kWindow, stream.size());
      for (std::uint64_t i = end - w; i > 1; --i) {
        std::swap(stream[w + i - 1], stream[w + rng.below(i)]);
      }
    }
    queue_.preload(bs, stream);

    bar_ = &sim.make_barrier(threads_);
    for (CoreId c = 0; c < threads_; ++c) {
      sim.spawn(c, worker(sim.context(c)));
    }
  }

  void verify(sim::Simulator& sim) override {
    std::uint64_t detected = 0;
    for (std::uint32_t c = 0; c < threads_; ++c) {
      detected += sim.read_word_resolved(detected_ + static_cast<Addr>(c) * kLineBytes);
    }
    if (detected != flows_) {
      throw std::runtime_error("intruder: detected flows != total flows");
    }
  }

 private:
  sim::ThreadTask worker(sim::ThreadContext& tc) {
    co_await tc.barrier(*bar_);
    Rng rng(seed_ + tc.core());
    const Addr my_detected =
        detected_ + static_cast<Addr>(tc.core()) * kLineBytes;
    for (;;) {
      // Capture: pop one packet from the shared queue (hot head counter).
      std::optional<std::uint64_t> pkt;
      co_await atomically(tc, /*site=*/1,
                          [&](sim::ThreadContext& t) -> sim::Task<void> {
        pkt = co_await queue_.pop(t);
      });
      if (!pkt) break;  // stream drained
      const std::uint64_t flow = (*pkt - 1) / 8;
      co_await tc.compute(120 + rng.below(60));  // decode the fragment

      // Reassembly + detection: bump the flow's fragment count; the thread
      // that completes the flow removes it and scans it.
      bool completed = false;
      co_await atomically(tc, /*site=*/2,
                          [&](sim::ThreadContext& t) -> sim::Task<void> {
        completed = false;
        const auto count = co_await fragments_.find(t, flow + 1);
        if (!count) {
          co_await fragments_.insert(t, flow + 1, 1);
        } else if (*count + 1 == kFragmentsPerFlow) {
          co_await fragments_.erase(t, flow + 1);
          completed = true;
        } else {
          co_await fragments_.update(t, flow + 1, *count + 1);
        }
      });
      if (completed) {
        co_await tc.compute(250 + rng.below(100));  // signature scan of the flow
        co_await atomically(tc, /*site=*/3,
                            [&](sim::ThreadContext& t) -> sim::Task<void> {
          const std::uint64_t n = co_await t.load(my_detected);
          co_await t.store(my_detected, n + 1);
        });
      }
    }
    co_await tc.barrier(*bar_);
  }

  std::uint32_t threads_ = 0;
  std::uint64_t flows_ = 0;
  std::uint64_t seed_ = 0;
  SimQueue queue_;
  SimHashMap fragments_;
  Addr detected_ = 0;
  sim::Barrier* bar_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_intruder() {
  return std::make_unique<Intruder>();
}

}  // namespace suvtm::stamp
