// Equivalence suites for the correctness layer.
//
// 1. Cross-scheme: all version-management schemes are different mechanisms
//    for the same contract, so a commit-order-insensitive workload run from
//    one seed must leave bit-identical resolved final memory under every
//    scheme. kmeans qualifies (its transactions only add into shared
//    accumulators, and cluster choice depends on thread-private data only).
//
// 2. Incremental-vs-reference oracle: the streaming HistoryOracle (eager
//    drain at the serialization horizon, window pruning) must produce
//    verdicts, replay counts and a final replay image bit-identical to the
//    whole-run reference replayer (cfg.check.reference) over randomized
//    histories -- including deliberately inconsistent ones -- and over full
//    simulator runs, serial and sharded (one oracle per PDES shard).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "check/check.hpp"
#include "check/equivalence.hpp"
#include "check/history.hpp"
#include "runner/experiment.hpp"
#include "sim/config.hpp"
#include "sim/simulator.hpp"
#include "stamp/framework.hpp"
#include "stamp/sharded_kv.hpp"

namespace suvtm::check {
namespace {

TEST(DiffImagesTest, IdenticalImagesProduceNoReport) {
  FinalImage a;
  a.scheme = sim::Scheme::kLogTmSe;
  a.words.emplace(0x1000, 7);
  FinalImage b = a;
  b.scheme = sim::Scheme::kSuv;
  EXPECT_TRUE(diff_images(a, b).empty());
}

TEST(DiffImagesTest, DivergentWordIsReported) {
  FinalImage a;
  a.scheme = sim::Scheme::kLogTmSe;
  a.words.emplace(0x1000, 7);
  FinalImage b;
  b.scheme = sim::Scheme::kSuv;
  b.words.emplace(0x1000, 9);
  const std::string d = diff_images(a, b);
  EXPECT_NE(d.find("0x1000"), std::string::npos);
  EXPECT_NE(d.find("diverge"), std::string::npos);
}

TEST(DiffImagesTest, WordMissingFromOneImageIsReported) {
  FinalImage a;
  a.scheme = sim::Scheme::kFasTm;
  a.words.emplace(0x2000, 3);
  FinalImage b;
  b.scheme = sim::Scheme::kDynTm;
  EXPECT_FALSE(diff_images(a, b).empty());
}

TEST(EquivalenceTest, AllSchemesProduceIdenticalKmeansImage) {
  sim::SimConfig cfg;
  cfg.check.enabled = false;  // the harness is the check here
  stamp::SuiteParams params;
  params.scale = 0.05;
  params.seed = 7;
  const std::string report = compare_schemes(
      stamp::AppId::kKmeans, cfg, params,
      {sim::Scheme::kLogTmSe, sim::Scheme::kFasTm, sim::Scheme::kSuv,
       sim::Scheme::kDynTm, sim::Scheme::kDynTmSuv});
  EXPECT_TRUE(report.empty()) << report;
}

TEST(EquivalenceTest, CapturedImageContainsWorkloadState) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  cfg.check.enabled = false;
  stamp::SuiteParams params;
  params.scale = 0.05;
  params.seed = 7;
  const FinalImage img =
      capture_final_image(stamp::AppId::kKmeans, cfg, params);
  EXPECT_EQ(img.scheme, sim::Scheme::kSuv);
  EXPECT_GT(img.words.size(), 0u);
  EXPECT_GT(img.commits, 0u);
  // Nothing from the SUV pool region leaks into the functional image.
  for (const auto& kv : img.words) EXPECT_LT(kv.first, kRedirectPoolBase);
}

// ---- incremental vs reference oracle ---------------------------------------

/// Feed identical recorded histories to a streaming oracle and a whole-run
/// reference oracle and require bit-identical results.
struct DualOracle {
  HistoryOracle inc;
  HistoryOracle ref;
  explicit DualOracle(std::uint32_t cores)
      : inc(cores, /*reference=*/false), ref(cores, /*reference=*/true) {}

  void begin(CoreId c, Cycle t) { inc.on_begin(c, t); ref.on_begin(c, t); }
  void read(CoreId c, bool tx, Addr w, std::uint64_t v, Cycle t) {
    inc.on_read(c, tx, w, v, t);
    ref.on_read(c, tx, w, v, t);
  }
  void write(CoreId c, bool tx, Addr w, std::uint64_t v, Cycle t) {
    inc.on_write(c, tx, w, v, t);
    ref.on_write(c, tx, w, v, t);
  }
  void commit_start(CoreId c, Cycle t) {
    inc.on_commit_start(c, t);
    ref.on_commit_start(c, t);
  }
  void commit_done(CoreId c, Cycle t, bool lazy) {
    inc.on_commit_done(c, t, lazy);
    ref.on_commit_done(c, t, lazy);
  }
  void abort(CoreId c) { inc.on_abort_done(c); ref.on_abort_done(c); }
  void suspend(CoreId c) { inc.on_suspend(c); ref.on_suspend(c); }
  void resume(CoreId c) { inc.on_resume(c); ref.on_resume(c); }
  void frame_push(CoreId c) { inc.on_frame_push(c); ref.on_frame_push(c); }
  void frame_pop(CoreId c) { inc.on_frame_pop(c); ref.on_frame_pop(c); }
  void frame_rollback(CoreId c) {
    inc.on_frame_rollback(c);
    ref.on_frame_rollback(c);
  }
};

void expect_oracles_identical(DualOracle& d) {
  EXPECT_EQ(d.inc.replayed_accesses(), d.ref.replayed_accesses());
  // The violation CAP (64) can bite the two modes at different points in
  // the interleaving, so multiset equality is only meaningful below it.
  if (d.inc.violations().size() < 64 && d.ref.violations().size() < 64) {
    std::vector<std::string> a = d.inc.violations();
    std::vector<std::string> b = d.ref.violations();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  } else {
    EXPECT_GE(d.inc.violations().size(), 64u);
    EXPECT_GE(d.ref.violations().size(), 64u);
  }
  const FlatMap<Addr, std::uint64_t> ia = d.inc.replay_image();
  const FlatMap<Addr, std::uint64_t> ib = d.ref.replay_image();
  EXPECT_EQ(ia.size(), ib.size());
  for (const auto& kv : ia) {
    const auto it = ib.find(kv.first);
    ASSERT_NE(it, ib.end()) << "word only in incremental image";
    EXPECT_EQ(it->second, kv.second) << "word " << kv.first;
  }
}

TEST(OracleEquivalenceTest, RandomizedHistoriesMatchReferenceReplayer) {
  constexpr std::uint32_t kCores = 4;
  constexpr int kOps = 160;
  const Addr words[] = {0x1000, 0x1008, 0x2000, 0x2040, 0x3000, 0x3008};
  std::uint64_t total_replayed = 0;
  std::size_t total_violations = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::mt19937_64 rng(0x5eed0000 + seed);
    DualOracle d(kCores);
    // Naive generation-order model; corrupted reads make both oracles
    // flag violations, which must still match exactly.
    FlatMap<Addr, std::uint64_t> model;
    struct CoreState {
      bool active = false;
      bool committing = false;
      int frames = 0;
      int parked = 0;
    };
    CoreState st[kCores];
    Cycle now = 10;
    auto value_of = [&](Addr w) -> std::uint64_t {
      auto it = model.find(w);
      std::uint64_t v = it == model.end() ? 0 : it->second;
      if (rng() % 16 == 0) v += 1;  // injected inconsistency
      return v;
    };
    for (int op = 0; op < kOps; ++op) {
      now += 1 + rng() % 3;
      const CoreId c = static_cast<CoreId>(rng() % kCores);
      CoreState& s = st[c];
      const Addr w = words[rng() % (sizeof(words) / sizeof(words[0]))];
      switch (rng() % 10) {
        case 0:
          if (!s.active) {
            d.begin(c, now);
            s.active = true;
          }
          break;
        case 1:
        case 2:
          if (s.active && !s.committing) d.read(c, true, w, value_of(w), now);
          break;
        case 3:
        case 4:
          if (s.active && !s.committing) {
            const std::uint64_t v = rng() % 100;
            d.write(c, true, w, v, now);
            model[w] = v;
          }
          break;
        case 5:
          if (s.active && !s.committing) {
            d.commit_start(c, now);
            s.committing = true;
          }
          break;
        case 6:
          if (s.committing) {
            d.commit_done(c, now, /*lazy=*/rng() % 2 == 0);
            s.active = s.committing = false;
            s.frames = 0;
          }
          break;
        case 7:
          if (s.active) {
            d.abort(c);
            s.active = s.committing = false;
            s.frames = 0;
          } else if (rng() % 2 == 0) {
            d.write(c, false, w, 7, now);
            model[w] = 7;
          } else {
            d.read(c, false, w, value_of(w), now);
          }
          break;
        case 8:
          if (s.active && !s.committing) {
            if (s.frames > 0 && rng() % 2 == 0) {
              if (rng() % 2 == 0) d.frame_pop(c);
              else d.frame_rollback(c);
              --s.frames;
            } else {
              d.frame_push(c);
              ++s.frames;
            }
          }
          break;
        case 9:
          if (s.active && !s.committing && s.parked == 0) {
            d.suspend(c);
            ++s.parked;
            s.active = false;
            s.frames = 0;  // frames travel with the parked txn
          } else if (s.parked > 0 && !s.active) {
            d.resume(c);
            --s.parked;
            s.active = true;
          }
          break;
      }
    }
    // Drain every core to a clean end-of-run state.
    for (CoreId c = 0; c < kCores; ++c) {
      for (;;) {
        now += 2;
        CoreState& s = st[c];
        if (s.active) {
          if (!s.committing) d.commit_start(c, now);
          d.commit_done(c, now + 1, false);
          s.active = s.committing = false;
        } else if (s.parked > 0) {
          d.resume(c);
          --s.parked;
          s.active = true;
        } else {
          break;
        }
      }
    }
    const auto load = [&](Addr a) {
      auto it = model.find(a);
      return it == model.end() ? std::uint64_t{0} : it->second;
    };
    d.inc.finalize(load);
    d.ref.finalize(load);
    expect_oracles_identical(d);
    total_replayed += d.inc.replayed_accesses();
    total_violations += d.inc.violations().size();
  }
  // Non-vacuity: the generator must have produced real histories, and the
  // injected inconsistencies must have made some of them violating.
  EXPECT_GT(total_replayed, 100u);
  EXPECT_GT(total_violations, 0u);
}

TEST(OracleEquivalenceTest, StreamingRetirementBoundsArenaPages) {
  // Back-to-back serial transactions: the streaming oracle replays each at
  // the next commit boundary and recycles its pages, so the pool never
  // grows past one transaction's footprint. The reference oracle retains
  // everything until finalize.
  constexpr int kTxns = 64;
  constexpr int kAccessesPerTxn = 600;  // several arena pages each
  DualOracle d(2);
  Cycle now = 10;
  for (int t = 0; t < kTxns; ++t) {
    d.begin(0, now);
    for (int i = 0; i < kAccessesPerTxn; ++i) {
      d.write(0, true, 0x1000 + 8 * (i % 32), t, now + 1);
    }
    d.commit_start(0, now + 2);
    d.commit_done(0, now + 3, false);
    now += 10;
  }
  d.inc.finalize(nullptr);
  d.ref.finalize(nullptr);
  EXPECT_EQ(d.inc.replayed_accesses(), d.ref.replayed_accesses());
  // ~5 pages per transaction; streaming keeps one transaction live while
  // the previous one drains, reference keeps all 64 transactions.
  EXPECT_LT(d.inc.arena_pages(), 32u);
  EXPECT_GT(d.ref.arena_pages(), 100u);
}

/// Full-simulation differential run: the same workload with the oracle in
/// incremental and reference mode must finalize clean both ways and leave
/// the same resolved image.
TEST(OracleEquivalenceTest, CheckedRunsMatchReferenceAcrossSchemesAndSeeds) {
  for (sim::Scheme scheme :
       {sim::Scheme::kLogTmSe, sim::Scheme::kSuv, sim::Scheme::kDynTmSuv}) {
    for (std::uint64_t seed : {3ull, 11ull}) {
      SCOPED_TRACE(testing::Message() << "scheme " << static_cast<int>(scheme)
                                      << " seed " << seed);
      stamp::SuiteParams params;
      params.scale = 0.05;
      params.seed = seed;
      sim::SimConfig cfg;
      cfg.scheme = scheme;
      cfg.check.enabled = true;
      cfg.check.audit_period = 16;
      cfg.check.reference = false;
      const FinalImage inc =
          capture_final_image(stamp::AppId::kKmeans, cfg, params);
      cfg.check.reference = true;
      const FinalImage ref =
          capture_final_image(stamp::AppId::kKmeans, cfg, params);
      EXPECT_TRUE(diff_images(inc, ref).empty()) << diff_images(inc, ref);
      EXPECT_EQ(inc.commits, ref.commits);
      EXPECT_EQ(inc.makespan, ref.makespan);
    }
  }
}

/// Sharded PDES differential run: one checker (and oracle) per shard, both
/// modes must agree on the full RunResult bit for bit.
TEST(OracleEquivalenceTest, ShardedCheckedRunMatchesReference) {
  auto run_one = [](bool reference) {
    sim::SimConfig cfg;
    cfg.scheme = sim::Scheme::kSuv;
    cfg.seed = 5;
    cfg.mem.num_cores = 16;
    cfg.pdes.shards = 4;
    cfg.check.enabled = true;
    cfg.check.audit_period = 16;
    cfg.check.reference = reference;
    sim::Simulator sim(cfg);
    stamp::ShardedKvParams p;
    p.ops_per_thread = 48;
    p.txn_keys = 16;
    p.keys_per_txn = 3;
    p.remote_read_every = 4;
    p.seed = 5;
    stamp::ShardedKv wl(p);
    wl.build(sim);
    sim.run();
    wl.verify(sim);
    return runner::harvest_result(sim, "sharded_kv", nullptr);
  };
  const runner::RunResult inc = run_one(false);
  const runner::RunResult ref = run_one(true);
  EXPECT_GT(inc.htm.commits, 0u);
  EXPECT_EQ(inc, ref);
}

}  // namespace
}  // namespace suvtm::check
