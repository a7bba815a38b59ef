// The harness contracts: parallel_for's fan-out, Cli's --jobs and
// --sim-threads parsing, the shared bench sweep's report and trace, and the
// determinism guarantee the runner layer is built on -- a (scheme, app,
// config, seed) point produces a bit-identical RunResult whether it runs
// serially or fanned out at any jobs count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/cli.hpp"
#include "runner/experiment.hpp"

namespace suvtm::runner {
namespace {

stamp::SuiteParams tiny() {
  stamp::SuiteParams p;
  p.scale = 0.15;
  return p;
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(64, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, JobsOneRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, SiblingsFinishAfterOneThrows) {
  std::atomic<int> completed{0};
  EXPECT_THROW(parallel_for(8, 4,
                            [&](std::size_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                              ++completed;
                            }),
               std::runtime_error);
  // Sibling experiments still ran to completion.
  EXPECT_EQ(completed.load(), 7);
}

TEST(ParallelForTest, RethrowsLowestFailingIndex) {
  for (unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    std::atomic<int> ran{0};
    try {
      parallel_for(16, jobs, [&](std::size_t i) {
        ++ran;
        if (i == 5 || i == 11) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "5");
    }
    EXPECT_EQ(ran.load(), 16);
  }
}

// ---- Cli: --jobs and --sim-threads ------------------------------------------

/// Pins SUVTM_JOBS (the default job count) for one test, restoring the
/// caller's value afterwards.
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    if (const char* old = std::getenv("SUVTM_JOBS")) saved_ = old;
    setenv("SUVTM_JOBS", value, 1);
  }
  ~ScopedJobsEnv() {
    if (saved_) {
      setenv("SUVTM_JOBS", saved_->c_str(), 1);
    } else {
      unsetenv("SUVTM_JOBS");
    }
  }
  ScopedJobsEnv(const ScopedJobsEnv&) = delete;
  ScopedJobsEnv& operator=(const ScopedJobsEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

/// Cli::parse over a mutable copy of `args` (argv[0] is "bench"); the
/// arguments parse left behind land in `rest`.
Cli parse(std::vector<std::string> args,
          std::vector<std::string>* rest = nullptr) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(args.size());
  const Cli cli = Cli::parse(argc, argv.data());
  if (rest) rest->assign(argv.begin() + 1, argv.begin() + argc);
  return cli;
}

TEST(CliTest, JobsFlagStripsItsValue) {
  std::vector<std::string> rest;
  const Cli cli = parse({"0.5", "--jobs", "3", "out.csv", "--x"}, &rest);
  EXPECT_EQ(cli.jobs, 3u);
  EXPECT_DOUBLE_EQ(cli.scale_or(1.0), 0.5);
  EXPECT_EQ(cli.args, (std::vector<std::string>{"out.csv"}));
  EXPECT_EQ(rest, (std::vector<std::string>{"--x"}));
}

TEST(CliTest, JobsEqualsForm) {
  std::vector<std::string> rest;
  EXPECT_EQ(parse({"--jobs=7"}, &rest).jobs, 7u);
  EXPECT_TRUE(rest.empty());
}

TEST(CliTest, BareTrailingJobsTakesTheDefault) {
  const ScopedJobsEnv env("6");
  std::vector<std::string> rest;
  const Cli cli = parse({"--jobs"}, &rest);
  EXPECT_EQ(cli.jobs, 6u);
  EXPECT_FALSE(cli.has_scale);
  EXPECT_TRUE(cli.args.empty());
  EXPECT_TRUE(rest.empty());
}

TEST(CliTest, SimThreadsDividesOnlyTheDefaultJobCount) {
  const ScopedJobsEnv env("6");
  const Cli implicit = parse({"--sim-threads", "2"});
  EXPECT_EQ(implicit.sim_threads, 2u);
  EXPECT_EQ(implicit.jobs, 3u);
  const Cli explicit_jobs = parse({"--sim-threads", "2", "--jobs", "5"});
  EXPECT_EQ(explicit_jobs.sim_threads, 2u);
  EXPECT_EQ(explicit_jobs.jobs, 5u);
}

// ---- Cli: the shared bench sweep --------------------------------------------

TEST(CliTest, SweepWritesReportKeysMetricsAndTrace) {
  Cli cli = parse({"--jobs", "2", "--metrics"});
  cli.trace_path = ::testing::TempDir() + "cli_sweep_trace.json";
  std::remove(cli.trace_path.c_str());
  sim::SimConfig cfg;
  cfg.mem.num_cores = 4;
  std::vector<RunPoint> points;
  for (stamp::AppId app : {stamp::AppId::kKmeans, stamp::AppId::kSsca2}) {
    points.push_back(RunPoint{app, cfg, tiny()});
  }
  BenchReport report("cli_sweep");
  const auto results = cli.run_matrix(points, {"a", "b"}, report);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].metrics.empty());

  const std::string json = report.to_json();
  for (const char* key : {"\"jobs\": 2", "\"runs\": 2", "\"wall_seconds\":",
                          "\"sim_events\":", "\"events_per_sec\":",
                          "\"metrics.htm.commits\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  std::ifstream trace(cli.trace_path);
  ASSERT_TRUE(trace.good()) << cli.trace_path;
  const std::string body((std::istreambuf_iterator<char>(trace)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("traceEvents"), std::string::npos);
  std::remove(cli.trace_path.c_str());
}

// ---- determinism -------------------------------------------------------------

// serial run_app twice, run_matrix at jobs=1 and run_matrix at jobs=4 all
// produce identical makespan, breakdown and stats for the same (scheme,
// app, config, seed), in submission order. RunResult::operator== is
// field-for-field over every stats struct.
TEST(ParallelRunnerTest, SerialAndParallelRunsBitIdentical) {
  for (sim::Scheme scheme : {sim::Scheme::kLogTmSe, sim::Scheme::kSuv}) {
    sim::SimConfig cfg;
    cfg.scheme = scheme;
    cfg.mem.num_cores = 4;

    std::vector<RunPoint> points;
    for (stamp::AppId app :
         {stamp::AppId::kKmeans, stamp::AppId::kSsca2, stamp::AppId::kVacation}) {
      points.push_back(RunPoint{app, cfg, tiny()});
    }

    // Serial reference, run twice to establish run-to-run determinism.
    std::vector<RunResult> serial_a, serial_b;
    for (const auto& pt : points) {
      serial_a.push_back(run_app(pt.app, pt.cfg, pt.params));
      serial_b.push_back(run_app(pt.app, pt.cfg, pt.params));
    }

    const auto par1 = run_matrix(points, 1);
    const auto par4 = run_matrix(points, 4);

    ASSERT_EQ(par1.size(), points.size());
    ASSERT_EQ(par4.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_GT(serial_a[i].makespan, 0u);
      EXPECT_GT(serial_a[i].sim_events, 0u);
      EXPECT_EQ(par4[i].app, stamp::app_name(points[i].app));
      EXPECT_EQ(serial_a[i], serial_b[i]);
      EXPECT_EQ(serial_a[i], par1[i]);
      EXPECT_EQ(serial_a[i], par4[i]);
    }
  }
}

}  // namespace
}  // namespace suvtm::runner
