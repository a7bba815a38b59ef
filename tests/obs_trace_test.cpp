// Tests for the observability layer (src/obs) and the shared bench/example
// plumbing: metrics snapshot/merge semantics, the occupancy sampler's
// simulated-cycle grid, the trace cap, byte-identical trace export across
// host job counts, a golden abort-edge check on a forced two-core conflict,
// stall counts and spans pinned across parked retries, scheme-string
// round-trips and the shared Cli parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "runner/cli.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "stamp/framework.hpp"

using namespace suvtm;

namespace {

// ---- metrics registry ------------------------------------------------------

TEST(MetricsSnapshotTest, SetGetKeepsSorted) {
  obs::MetricsSnapshot s;
  EXPECT_TRUE(s.empty());
  s.set("zeta", 2.0);
  s.set("alpha", 1.0);
  s.set("mid", 3.0);
  s.set("alpha", 4.0);  // replace, not duplicate
  ASSERT_EQ(s.scalars.size(), 3u);
  EXPECT_EQ(s.scalars[0].first, "alpha");
  EXPECT_EQ(s.scalars[2].first, "zeta");
  EXPECT_DOUBLE_EQ(s.get("alpha"), 4.0);
  EXPECT_DOUBLE_EQ(s.get("missing", -1.0), -1.0);
}

TEST(MetricsSnapshotTest, MergeSumsScalarsAndHistogramsDropsSeries) {
  obs::Metrics m;
  m.add(obs::Counter::kStallRetries, 3);
  m.observe(obs::Histogram::kStallCycles, 8);
  m.sample(obs::Series::kRedirectEntries, 10, 5);
  obs::MetricsSnapshot a = obs::snapshot(m);
  ASSERT_FALSE(a.empty());
  EXPECT_DOUBLE_EQ(a.get("obs.stall_retries", -1.0), 3.0);
  ASSERT_EQ(a.series.size(), 1u);

  obs::MetricsSnapshot merged;
  obs::merge(merged, a);
  obs::merge(merged, a);
  EXPECT_DOUBLE_EQ(merged.get("obs.stall_retries"), 6.0);
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].data.count, 2u);
  EXPECT_EQ(merged.histograms[0].data.sum, 16u);
  EXPECT_TRUE(merged.series.empty());  // occupancy curves never sum
}

TEST(MetricsSnapshotTest, SnapshotSkipsZeroCounters) {
  obs::Metrics m;
  const obs::MetricsSnapshot s = obs::snapshot(m);
  EXPECT_TRUE(s.empty());
}

// ---- occupancy grid --------------------------------------------------------

// The first drained cycle at or past a grid cycle takes that grid cycle's
// sample, one per grid cycle passed, reading the gauges as they stand when
// the cycle is announced (before it dispatches).
TEST(OccupancyGridTest, OneSamplePerGridCyclePassedReadAtTheCall) {
  constexpr Cycle P = obs::Recorder::kSamplePeriodCycles;
  sim::ObsParams op;
  op.metrics = true;
  const sim::Scheduler clock;
  obs::Recorder rec(op, 1, clock);
  std::uint64_t gauge = 0;
  rec.set_sampler([&gauge](obs::Metrics& m, Cycle t) {
    m.sample(obs::Series::kPoolLines, t, gauge);
  });
  const std::pair<Cycle, std::uint64_t> calls[] = {
      {0, 1}, {P - 1, 2}, {P, 3}, {3 * P + 5, 4}};
  for (const auto& [t, v] : calls) {
    gauge = v;
    rec.on_cycle(t);
  }
  const std::vector<obs::SeriesPoint> want = {{P, 3}, {2 * P, 4}, {3 * P, 4}};
  EXPECT_EQ(rec.metrics().series(obs::Series::kPoolLines), want);
}

// Every series point of a completed serial run sits on the grid: one point
// at k * P for each k = 1..floor(makespan / P), however the scheduler
// skipped the cycles between them.
TEST(OccupancyGridTest, BayesSeriesPointsSitOnTheGrid) {
  constexpr Cycle P = obs::Recorder::kSamplePeriodCycles;
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  cfg.obs.metrics = true;
  stamp::SuiteParams params;
  params.scale = 0.05;
  const runner::RunResult r =
      runner::run_app(stamp::AppId::kBayes, cfg, params);
  ASSERT_GE(r.makespan, 2 * P) << "the run must pass several grid cycles";
  ASSERT_EQ(r.metrics.series.size(),
            static_cast<std::size_t>(obs::Series::kCount));
  for (const obs::SeriesSnapshot& s : r.metrics.series) {
    SCOPED_TRACE(s.name);
    ASSERT_EQ(s.points.size(), r.makespan / P);
    for (std::size_t k = 0; k < s.points.size(); ++k) {
      EXPECT_EQ(s.points[k].t, (k + 1) * P) << "point " << k;
    }
  }
}

// ---- tracer ----------------------------------------------------------------

TEST(TracerTest, CapCountsDroppedEvents) {
  obs::Tracer tr(4);
  for (int i = 0; i < 7; ++i) {
    obs::TraceEvent e;
    e.ts = static_cast<Cycle>(i);
    tr.emit(e);
  }
  EXPECT_EQ(tr.data().events.size(), 4u);
  EXPECT_EQ(tr.data().dropped, 3u);
  const obs::TraceData taken = obs::Tracer(4).take();
  EXPECT_TRUE(taken.events.empty());
}

TEST(TracerTest, RunRespectsConfiguredCap) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  cfg.obs.trace = true;
  cfg.obs.max_trace_events = 16;
  stamp::SuiteParams params;
  params.scale = 0.1;
  obs::TraceData trace;
  runner::run_app(stamp::AppId::kKmeans, cfg, params, &trace);
  EXPECT_LE(trace.events.size(), 16u);
  EXPECT_GT(trace.dropped, 0u);  // a real run emits far more than 16
}

// ---- determinism across host job counts ------------------------------------

TEST(TraceDeterminismTest, SerialAndParallelBytesIdentical) {
  stamp::SuiteParams params;
  params.scale = 0.1;
  std::vector<runner::RunPoint> points;
  for (sim::Scheme s : {sim::Scheme::kLogTmSe, sim::Scheme::kSuv}) {
    sim::SimConfig cfg;
    cfg.scheme = s;
    cfg.obs.trace = true;
    cfg.obs.metrics = true;
    for (stamp::AppId app : {stamp::AppId::kKmeans, stamp::AppId::kIntruder}) {
      points.push_back(runner::RunPoint{app, cfg, params});
    }
  }
  std::vector<obs::TraceData> ta, tb;
  const auto a = runner::run_matrix(points, 1, &ta);
  const auto b = runner::run_matrix(points, 4, &tb);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(ta.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "run " << i;
    EXPECT_EQ(ta[i], tb[i]) << "run " << i;
  }
  std::vector<obs::NamedTrace> na, nb;
  for (std::size_t i = 0; i < points.size(); ++i) {
    na.push_back({a[i].app, &ta[i]});
    nb.push_back({b[i].app, &tb[i]});
  }
  EXPECT_EQ(obs::chrome_trace_json(na), obs::chrome_trace_json(nb));
}

// ---- golden abort-edge scenario --------------------------------------------

sim::ThreadTask counter_hammer(sim::ThreadContext& tc, sim::Barrier& bar,
                               Addr counter, int iters) {
  co_await tc.barrier(bar);
  for (int i = 0; i < iters; ++i) {
    co_await stamp::atomically(tc, 1,
                               [&](sim::ThreadContext& t) -> sim::Task<void> {
      const std::uint64_t v = co_await t.load(counter);
      co_await t.compute(60);  // widen the conflict window
      co_await t.store(counter, v + 1);
    });
  }
}

TEST(TraceGoldenTest, ContendedCounterEmitsSpansAndAbortEdges) {
  constexpr Addr kCounter = 0x9000;
  constexpr int kIters = 40;
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  cfg.mem.num_cores = 4;
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  sim::Simulator sim(cfg);
  sim::Barrier& bar = sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, counter_hammer(sim.context(c), bar, kCounter, kIters));
  }
  sim.run();
  EXPECT_EQ(sim.read_word_resolved(kCounter),
            static_cast<std::uint64_t>(sim.num_cores()) * kIters);

  const htm::HtmStats stats = sim.total_htm_stats();
  ASSERT_GT(stats.aborts, 0u) << "scenario must force conflicts";

  const obs::TraceData t = sim.take_trace();
  ASSERT_FALSE(t.events.empty());
  std::uint64_t spans = 0, edges = 0, abort_spans = 0;
  for (const obs::TraceEvent& e : t.events) {
    EXPECT_LE(e.ts + e.dur, sim.makespan());
    switch (e.kind) {
      case obs::EventKind::kTxnSpan:
        ++spans;
        if (e.cause != 0) ++abort_spans;
        break;
      case obs::EventKind::kAbortEdge:
        ++edges;
        EXPECT_EQ(e.dur, 0u);             // instant
        EXPECT_NE(e.core, e.a);           // aborter never its own victim
        EXPECT_NE(e.cause, 0u);           // must carry an AbortCause
        break;
      default:
        break;
    }
  }
  // Every txn attempt closes into exactly one span; aborted attempts carry
  // their cause.
  EXPECT_EQ(spans, stats.commits + stats.aborts);
  EXPECT_EQ(abort_spans, stats.aborts);
  EXPECT_GT(edges, 0u);

  const obs::MetricsSnapshot m = sim.harvest_metrics();
  EXPECT_DOUBLE_EQ(m.get("obs.conflict_edges", -1.0),
                   static_cast<double>(edges));
}

// Instants the recorder stamps itself (abort edges among them) carry the
// cycle of the event that raised them. A deadlock victim that is the
// requester starts its abort window in the very event whose check found
// the cycle, so that edge and the window share one ts. A recorder clock
// that lagged to the previous populated cycle stamped every edge early.
TEST(TraceGoldenTest, RequesterVictimEdgeSharesItsAbortWindowCycle) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kLogTmSe;
  cfg.mem.num_cores = 4;
  cfg.obs.trace = true;
  sim::Simulator sim(cfg);
  sim::Barrier& bar = sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, counter_hammer(sim.context(c), bar, 0x9000, 40));
  }
  sim.run();

  const auto deadlock = static_cast<std::uint8_t>(htm::AbortCause::kDeadlockCycle);
  const std::vector<obs::TraceEvent> ev = sim.take_trace().events;
  std::uint64_t edges = 0, same_cycle = 0;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const obs::TraceEvent& e = ev[i];
    if (e.kind != obs::EventKind::kAbortEdge || e.cause != deadlock) continue;
    ++edges;
    // The victim's next abort window in emission order is the one this
    // edge caused: a doomed transaction aborts at its next event.
    std::size_t w = i + 1;
    while (w < ev.size() && !(ev[w].kind == obs::EventKind::kAbortWindow &&
                              ev[w].core == e.a)) {
      ++w;
    }
    ASSERT_LT(w, ev.size()) << "edge at ts " << e.ts << " has no abort";
    EXPECT_EQ(ev[w].cause, deadlock);
    EXPECT_GE(ev[w].ts, e.ts);
    if (ev[w].ts == e.ts) ++same_cycle;
  }
  ASSERT_GT(edges, 0u) << "scenario must close deadlock cycles";
  EXPECT_GT(same_cycle, 0u)
      << "no requester-victim edge shares its abort window's cycle";
}

// Parked NACK retries skip the conflict re-check and settle their obs stall
// count in bulk; the trace must not tell. The constants were taken from
// this run before retries could park.
TEST(TraceGoldenTest, ParkedRetriesKeepStallCountsAndSpans) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kLogTmSe;
  cfg.mem.num_cores = 8;
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  sim::Simulator sim(cfg);
  sim::Barrier& bar = sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, counter_hammer(sim.context(c), bar, 0x9000, 40));
  }
  sim.run();
  EXPECT_GT(sim.scheduler().parked_wakes(), 0u) << "no retry parked";

  std::uint64_t spans = 0, stalled = 0;
  for (const obs::TraceEvent& e : sim.take_trace().events) {
    if (e.kind != obs::EventKind::kStallSpan) continue;
    ++spans;
    stalled += e.dur;
  }
  EXPECT_EQ(spans, 1199u);
  EXPECT_EQ(stalled, 628900u);
  EXPECT_DOUBLE_EQ(sim.harvest_metrics().get("obs.stall_retries", -1.0),
                   31445.0);
  EXPECT_EQ(sim.events_processed(), 40045u);
}

// ---- chrome-trace export ----------------------------------------------------

TEST(ChromeTraceTest, ExportShapeAndWriteRoundTrip) {
  obs::TraceData t;
  obs::TraceEvent e;
  e.ts = 5;
  e.dur = 10;
  e.kind = obs::EventKind::kTxnSpan;
  e.core = 2;
  t.events.push_back(e);
  const std::string json = obs::chrome_trace_json({{"unit/SUV-TM", &t}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("unit/SUV-TM"), std::string::npos);
  EXPECT_NE(json.find("\"ph\""), std::string::npos);

  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::write_chrome_trace(path, {{"unit", &t}}));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

// ---- scheme spellings --------------------------------------------------------

TEST(SchemeTableTest, FromStringRoundTripsBothSpellings) {
  for (const auto& row : sim::scheme_table()) {
    EXPECT_EQ(sim::scheme_from_string(row.cli_name), row.scheme);
    EXPECT_EQ(sim::scheme_from_string(row.name), row.scheme);
  }
}

TEST(SchemeTableTest, FromStringRejectsUnknownNameListingValidOnes) {
  try {
    sim::scheme_from_string("not-a-scheme");
    FAIL() << "unknown scheme accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not-a-scheme"), std::string::npos) << what;
    for (const auto& row : sim::scheme_table()) {
      EXPECT_NE(what.find(row.cli_name), std::string::npos) << what;
    }
  }
}

// ---- untraced simulator -----------------------------------------------------

TEST(SimulatorObsTest, UntracedRunExportsNothing) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kLogTmSe;
  sim::Simulator sim(cfg);
  sim.poke_word(0x100, 42);
  EXPECT_EQ(sim.read_word_resolved(0x100), 42u);
  EXPECT_TRUE(sim.take_trace().events.empty());
  EXPECT_TRUE(sim.harvest_metrics().empty());
}

// ---- shared Cli -------------------------------------------------------------

TEST(CliTest, ParsesAndStripsSharedFlags) {
  std::vector<std::string> raw = {"prog",    "0.25",          "--smoke",
                                  "--check", "--trace=t.json", "extra.csv",
                                  "--metrics", "--custom-flag"};
  std::vector<char*> argv;
  for (auto& s : raw) argv.push_back(s.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(raw.size());
  const runner::Cli cli = runner::Cli::parse(argc, argv.data());
  EXPECT_TRUE(cli.smoke);
  EXPECT_TRUE(cli.check);
  EXPECT_TRUE(cli.metrics);
  EXPECT_TRUE(cli.tracing());
  EXPECT_EQ(cli.trace_path, "t.json");
  EXPECT_TRUE(cli.has_scale);
  EXPECT_DOUBLE_EQ(cli.scale_or(9.0), 0.25);
  ASSERT_EQ(cli.args.size(), 1u);
  EXPECT_EQ(cli.args[0], "extra.csv");
  EXPECT_EQ(cli.arg_or(5, "dflt"), "dflt");
  // Only the unknown flag survives for harness-specific parsing.
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--custom-flag");
}

TEST(CliTest, ApplyOnlySetsFlagsNeverClears) {
  runner::Cli off;  // nothing requested
  sim::SimConfig cfg;
  cfg.obs.trace = true;  // e.g. set by the program
  cfg.check.enabled = true;
  off.apply(cfg);
  EXPECT_TRUE(cfg.obs.trace);
  EXPECT_TRUE(cfg.check.enabled);

  runner::Cli on;
  on.check = true;
  on.metrics = true;
  on.trace_path = "x.json";
  sim::SimConfig cfg2;
  on.apply(cfg2);
  EXPECT_TRUE(cfg2.check.enabled);
  EXPECT_TRUE(cfg2.obs.metrics);
  EXPECT_TRUE(cfg2.obs.trace);
}

}  // namespace
