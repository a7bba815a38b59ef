// End-to-end transactional semantics, parameterized over all five schemes:
// every version-management implementation must provide the same atomicity,
// isolation and determinism guarantees.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "sim/simulator.hpp"
#include "stamp/framework.hpp"
#include "vm/suv_vm.hpp"

namespace suvtm {
namespace {

using sim::Scheme;

const Scheme kAllSchemes[] = {Scheme::kLogTmSe, Scheme::kFasTm, Scheme::kSuv,
                              Scheme::kDynTm, Scheme::kDynTmSuv};

sim::SimConfig config_for(Scheme s) {
  sim::SimConfig cfg;
  cfg.scheme = s;
  return cfg;
}

// --- shared coroutine bodies -------------------------------------------------

sim::ThreadTask incrementer(sim::ThreadContext& tc, Addr counter,
                            sim::Barrier& bar, int iters) {
  co_await tc.barrier(bar);
  for (int i = 0; i < iters; ++i) {
    co_await stamp::atomically(tc, 1,
                               [&](sim::ThreadContext& t) -> sim::Task<void> {
      const std::uint64_t v = co_await t.load(counter);
      co_await t.compute(5);
      co_await t.store(counter, v + 1);
    });
  }
  co_await tc.barrier(bar);
}

sim::ThreadTask transferer(sim::ThreadContext& tc, Addr accounts, int n,
                           sim::Barrier& bar, int iters) {
  co_await tc.barrier(bar);
  Rng& rng = tc.rng();
  for (int i = 0; i < iters; ++i) {
    const int from = static_cast<int>(rng.below(n));
    const int to = static_cast<int>(rng.below(n));
    co_await stamp::atomically(tc, 2,
                               [&](sim::ThreadContext& t) -> sim::Task<void> {
      const Addr fa = accounts + from * kLineBytes;
      const Addr ta = accounts + to * kLineBytes;
      const std::uint64_t fv = co_await t.load(fa);
      const std::uint64_t tv = co_await t.load(ta);
      if (from != to) {
        co_await t.store(fa, fv - 10);
        co_await t.store(ta, tv + 10);
      }
    });
    co_await tc.compute(30);
  }
  co_await tc.barrier(bar);
}

sim::ThreadTask nested_writer(sim::ThreadContext& tc, Addr a, Addr b,
                              sim::Barrier& bar) {
  co_await tc.barrier(bar);
  co_await stamp::atomically(tc, 3,
                             [&](sim::ThreadContext& t) -> sim::Task<void> {
    const std::uint64_t v = co_await t.load(a);
    co_await t.store(a, v + 1);
    // Closed-nested inner transaction.
    co_await t.tx_begin(4);
    const std::uint64_t w = co_await t.load(b);
    co_await t.store(b, w + 1);
    co_await t.tx_commit();
  });
  co_await tc.barrier(bar);
}

sim::ThreadTask nontx_reader(sim::ThreadContext& tc, Addr flag, Addr payload,
                             std::uint64_t* bad) {
  // Strong isolation check: a NON-transactional observer must never see
  // payload updated without the flag (both written in one transaction).
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t f = co_await tc.load(flag);
    const std::uint64_t p = co_await tc.load(payload);
    if (p < f) ++*bad;  // payload written first, flag second
    co_await tc.compute(7);
  }
}

sim::ThreadTask flagged_writer(sim::ThreadContext& tc, Addr flag, Addr payload,
                               int iters) {
  for (int i = 0; i < iters; ++i) {
    co_await stamp::atomically(tc, 5,
                               [&](sim::ThreadContext& t) -> sim::Task<void> {
      const std::uint64_t p = co_await t.load(payload);
      co_await t.store(payload, p + 1);
      co_await t.compute(20);
      const std::uint64_t f = co_await t.load(flag);
      co_await t.store(flag, f + 1);
    });
    co_await tc.compute(15);
  }
}

// --- parameterized suite -----------------------------------------------------

class SchemeSemantics : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeSemantics, HotCounterIsAtomic) {
  sim::Simulator sim(config_for(GetParam()));
  const Addr counter = 0x10000;
  auto& bar = sim.make_barrier(sim.num_cores());
  constexpr int kIters = 60;
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, incrementer(sim.context(c), counter, bar, kIters));
  }
  sim.run();
  EXPECT_EQ(sim.read_word_resolved(counter),
            static_cast<std::uint64_t>(kIters) * sim.num_cores());
  EXPECT_EQ(sim.htm().stats().commits,
            static_cast<std::uint64_t>(kIters) * sim.num_cores());
}

TEST_P(SchemeSemantics, MoneyIsConserved) {
  sim::Simulator sim(config_for(GetParam()));
  const Addr accounts = 0x20000;
  constexpr int kAccounts = 32;
  constexpr std::uint64_t kInitial = 1000;
  for (int i = 0; i < kAccounts; ++i) {
    sim.mem().store_word(accounts + i * kLineBytes, kInitial);
  }
  auto& bar = sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, transferer(sim.context(c), accounts, kAccounts, bar, 25));
  }
  sim.run();
  std::uint64_t total = 0;
  for (int i = 0; i < kAccounts; ++i) {
    total += sim.read_word_resolved(accounts + i * kLineBytes);
  }
  EXPECT_EQ(total, kInitial * kAccounts);
}

TEST_P(SchemeSemantics, ClosedNestingCommitsBothLevels) {
  sim::Simulator sim(config_for(GetParam()));
  const Addr a = 0x30000, b = 0x30000 + kLineBytes;
  auto& bar = sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, nested_writer(sim.context(c), a, b, bar));
  }
  sim.run();
  EXPECT_EQ(sim.read_word_resolved(a), sim.num_cores());
  EXPECT_EQ(sim.read_word_resolved(b), sim.num_cores());
  EXPECT_EQ(sim.htm().stats().nested_begins, sim.num_cores());
}

TEST_P(SchemeSemantics, StrongIsolationForNonTxReaders) {
  sim::Simulator sim(config_for(GetParam()));
  const Addr flag = 0x40000, payload = 0x40000 + kLineBytes;
  std::uint64_t bad = 0;
  sim.spawn(0, flagged_writer(sim.context(0), flag, payload, 60));
  sim.spawn(1, nontx_reader(sim.context(1), flag, payload, &bad));
  sim.run();
  EXPECT_EQ(bad, 0u) << "non-transactional reader observed a torn commit";
}

TEST_P(SchemeSemantics, DeterministicAcrossRuns) {
  Cycle first = 0;
  for (int run = 0; run < 2; ++run) {
    sim::Simulator sim(config_for(GetParam()));
    const Addr counter = 0x50000;
    auto& bar = sim.make_barrier(sim.num_cores());
    for (CoreId c = 0; c < sim.num_cores(); ++c) {
      sim.spawn(c, incrementer(sim.context(c), counter, bar, 20));
    }
    sim.run();
    if (run == 0) first = sim.makespan();
    else EXPECT_EQ(sim.makespan(), first);
  }
}

TEST_P(SchemeSemantics, BreakdownCoversMakespanWork) {
  sim::Simulator sim(config_for(GetParam()));
  const Addr counter = 0x60000;
  auto& bar = sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, incrementer(sim.context(c), counter, bar, 20));
  }
  sim.run();
  const auto b = sim.total_breakdown();
  EXPECT_GT(b.get(sim::Bucket::kTrans), 0u);
  // Accounted cycles must be plausible: at most cores x makespan.
  EXPECT_LE(b.total(), static_cast<Cycle>(sim.num_cores()) * sim.makespan() +
                           sim.num_cores());
}

TEST_P(SchemeSemantics, AbortsRollBackEverything) {
  // Single adversarial line hammered by everyone: plenty of aborts, yet the
  // final value must be exact and no transaction may observe a torn state.
  sim::Simulator sim(config_for(GetParam()));
  const Addr counter = 0x70000;
  auto& bar = sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, incrementer(sim.context(c), counter, bar, 40));
  }
  sim.run();
  EXPECT_EQ(sim.read_word_resolved(counter), 40u * sim.num_cores());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeSemantics,
                         ::testing::ValuesIn(kAllSchemes),
                         [](const auto& info) {
                           switch (info.param) {
                             case Scheme::kLogTmSe: return "LogTmSe";
                             case Scheme::kFasTm: return "FasTm";
                             case Scheme::kSuv: return "Suv";
                             case Scheme::kDynTm: return "DynTm";
                             case Scheme::kDynTmSuv: return "DynTmSuv";
                           }
                           return "unknown";
                         });

TEST(SimulatorTest, ThrowsOnWorkloadException) {
  sim::Simulator sim(config_for(Scheme::kSuv));
  struct Boom {};
  auto body = [](sim::ThreadContext& tc) -> sim::ThreadTask {
    co_await tc.compute(5);
    throw Boom{};
  };
  sim.spawn(0, body(sim.context(0)));
  EXPECT_THROW(sim.run(), Boom);
}

TEST(SimulatorTest, MakespanAdvances) {
  sim::Simulator sim(config_for(Scheme::kSuv));
  auto body = [](sim::ThreadContext& tc) -> sim::ThreadTask {
    co_await tc.compute(123);
  };
  sim.spawn(0, body(sim.context(0)));
  sim.run();
  EXPECT_GE(sim.makespan(), 123u);
}

TEST(SimulatorTest, SuvLeavesNoTransientEntriesBehind) {
  sim::Simulator sim(config_for(Scheme::kSuv));
  const Addr counter = 0x80000;
  auto& bar = sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, incrementer(sim.context(c), counter, bar, 10));
  }
  sim.run();
  auto* suvvm = dynamic_cast<vm::SuvVm*>(&sim.htm().vm());
  ASSERT_NE(suvvm, nullptr);
  // All remaining entries must be stable (global) -- every transaction
  // ended, so no transient state may survive.
  // total_entries counts live entries; each must resolve identically for
  // any observer.
  const Addr r1 = suvvm->debug_resolve(0, counter);
  const Addr r2 = suvvm->debug_resolve(7, counter);
  EXPECT_EQ(r1, r2);
}

// The runtime switches are the only gates: every domain carries a checker
// exactly when check.enabled is set, and a recorder exactly when trace or
// metrics is. All three are set explicitly so the SUVTM_CHECK environment
// default cannot flip the checker.
TEST(SimulatorTest, RuntimeSwitchesAloneGateCheckerAndRecorder) {
  struct Gates {
    bool check, trace, metrics;
  };
  for (std::uint32_t shards : {1u, 4u}) {
    for (const Gates g : {Gates{false, false, false}, Gates{true, false, false},
                          Gates{false, true, false}, Gates{false, false, true}}) {
      sim::SimConfig cfg = config_for(Scheme::kSuv);
      cfg.pdes.shards = shards;
      cfg.check.enabled = g.check;
      cfg.obs.trace = g.trace;
      cfg.obs.metrics = g.metrics;
      sim::Simulator sim(cfg);
      ASSERT_EQ(sim.num_domains(), shards);
      for (std::uint32_t d = 0; d < shards; ++d) {
        SCOPED_TRACE(testing::Message()
                     << "shards " << shards << " domain " << d << " check "
                     << g.check << " trace " << g.trace << " metrics "
                     << g.metrics);
        EXPECT_EQ(sim.checker(d) != nullptr, g.check);
        EXPECT_EQ(sim.recorder(d) != nullptr, g.trace || g.metrics);
      }
    }
  }
}

TEST(SimConfigValidateTest, AcceptsTableIIIAndLargestMachine) {
  EXPECT_NO_THROW(sim::SimConfig{}.validate());
  sim::SimConfig cfg;
  cfg.mem.num_cores = 64;
  cfg.mem.mesh_dim = 8;
  cfg.pdes.shards = 4;
  EXPECT_NO_THROW(cfg.validate());
}

// Each value below would trip a component assert, divide by zero or write
// out of bounds; the Simulator rejects it up front, naming the field.
TEST(SimConfigValidateTest, SimulatorRejectsEachUnmodellableField) {
  using Mutate = void (*)(sim::SimConfig&);
  const std::pair<const char*, Mutate> cases[] = {
      {"mem.num_cores", [](sim::SimConfig& c) { c.mem.num_cores = 65; }},
      {"mem.num_cores", [](sim::SimConfig& c) { c.mem.num_cores = 0; }},
      {"htm.signature_bits",
       [](sim::SimConfig& c) { c.htm.signature_bits = 1000; }},
      {"suv.summary_signature_bits",
       [](sim::SimConfig& c) { c.suv.summary_signature_bits = 0; }},
      {"htm.signature_hashes",
       [](sim::SimConfig& c) { c.htm.signature_hashes = 0; }},
      {"mem.l1_assoc", [](sim::SimConfig& c) { c.mem.l1_assoc = 0; }},
      {"mem.l1_bytes", [](sim::SimConfig& c) { c.mem.l1_bytes = 3 * 1024; }},
      {"mem.l2_assoc", [](sim::SimConfig& c) { c.mem.l2_assoc = 0; }},
      {"mem.l2_bytes", [](sim::SimConfig& c) { c.mem.l2_bytes = 0; }},
      {"mem.mesh_dim", [](sim::SimConfig& c) { c.mem.mesh_dim = 0; }},
      {"suv.l2_table_assoc",
       [](sim::SimConfig& c) { c.suv.l2_table_assoc = 0; }},
      {"pdes.shards", [](sim::SimConfig& c) { c.pdes.shards = 3; }},
  };
  for (const auto& [field, mutate] : cases) {
    SCOPED_TRACE(field);
    sim::SimConfig cfg;
    mutate(cfg);
    EXPECT_THROW(sim::Simulator{cfg}, std::invalid_argument);
    try {
      cfg.validate();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace suvtm
