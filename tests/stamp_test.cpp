// Every STAMP-like application must run to completion and pass its own
// invariant verification under every version-management scheme. This is the
// suite's core correctness matrix (8 apps x 5 schemes), run at a reduced
// scale to keep test time reasonable.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runner/experiment.hpp"

namespace suvtm {
namespace {

using Combo = std::tuple<stamp::AppId, sim::Scheme>;

class StampMatrix : public ::testing::TestWithParam<Combo> {};

TEST_P(StampMatrix, RunsAndVerifies) {
  const auto [app, scheme] = GetParam();
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  stamp::SuiteParams params;
  params.scale = 0.25;
  params.seed = 7;
  runner::RunResult r;
  ASSERT_NO_THROW(r = runner::run_app(app, cfg, params));
  EXPECT_GT(r.makespan, 0u);
  EXPECT_GT(r.htm.commits, 0u);
  // Every committed or aborted attempt must be accounted.
  EXPECT_EQ(r.htm.begins, r.htm.commits + r.htm.aborts);
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  const auto [app, scheme] = info.param;
  std::string n = stamp::app_name(app);
  n += "_";
  n += sim::scheme_name(scheme);
  for (char& c : n) {
    if (c == '-' || c == '+') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StampMatrix,
    ::testing::Combine(::testing::ValuesIn(stamp::all_apps()),
                       ::testing::Values(sim::Scheme::kLogTmSe,
                                         sim::Scheme::kFasTm,
                                         sim::Scheme::kSuv,
                                         sim::Scheme::kDynTm,
                                         sim::Scheme::kDynTmSuv)),
    combo_name);

TEST(StampRegistryTest, EightApps) {
  EXPECT_EQ(stamp::all_apps().size(), 8u);
}

TEST(StampRegistryTest, FiveHighContentionApps) {
  // Paper Section V / Table IV: bayes, genome, intruder, labyrinth, yada.
  EXPECT_EQ(stamp::high_contention_apps(),
            (std::vector<stamp::AppId>{
                stamp::AppId::kBayes, stamp::AppId::kGenome,
                stamp::AppId::kIntruder, stamp::AppId::kLabyrinth,
                stamp::AppId::kYada}));
}

TEST(StampDeterminismTest, SameSeedSameMakespan) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  stamp::SuiteParams params;
  params.scale = 0.2;
  const auto a = runner::run_app(stamp::AppId::kGenome, cfg, params);
  const auto b = runner::run_app(stamp::AppId::kGenome, cfg, params);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.htm.aborts, b.htm.aborts);
}

TEST(StampDeterminismTest, DifferentSeedsDiffer) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  stamp::SuiteParams pa, pb;
  pa.scale = pb.scale = 0.2;
  pa.seed = 1;
  pb.seed = 2;
  const auto a = runner::run_app(stamp::AppId::kVacation, cfg, pa);
  const auto b = runner::run_app(stamp::AppId::kVacation, cfg, pb);
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(StampScaleTest, LargerScaleMoreWork) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kFasTm;
  stamp::SuiteParams small, large;
  small.scale = 0.2;
  large.scale = 0.5;
  const auto a = runner::run_app(stamp::AppId::kSsca2, cfg, small);
  const auto b = runner::run_app(stamp::AppId::kSsca2, cfg, large);
  EXPECT_GT(b.htm.commits, a.htm.commits);
}

TEST(StampSuvTest, HighContentionAppsCreateRedirectEntries) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  stamp::SuiteParams params;
  params.scale = 0.25;
  const auto r = runner::run_app(stamp::AppId::kYada, cfg, params);
  ASSERT_TRUE(r.has_suv);
  EXPECT_GT(r.suv.entries_created, 0u);
  EXPECT_GT(r.suv.entries_published, 0u);
  // The entry-count-reduction feature fires: rewrites toggle entries away.
  EXPECT_GT(r.suv.entries_toggled, 0u);
  EXPECT_GT(r.suv.entries_deleted, 0u);
}

TEST(StampSuvTest, SummaryFilterScreensMostLookups) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  stamp::SuiteParams params;
  params.scale = 0.25;
  const auto r = runner::run_app(stamp::AppId::kVacation, cfg, params);
  ASSERT_TRUE(r.has_suv);
  EXPECT_GT(r.table.summary_filtered, 0u);
}

}  // namespace
}  // namespace suvtm
