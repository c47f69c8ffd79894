#include "runtime/qos.hpp"

#include <gtest/gtest.h>

#include "app/stentboost.hpp"


namespace tc::rt {
namespace {

std::vector<NodeForecast> heavy_forecast() {
  std::vector<NodeForecast> fc(app::kNodeCount);
  auto set = [&fc](i32 node, f64 ms) {
    fc[static_cast<usize>(node)].serial_ms = ms;
    fc[static_cast<usize>(node)].active = true;
    fc[static_cast<usize>(node)].data_parallel = app::node_data_parallel(node);
  };
  set(app::kRdgFull, 45.0);
  set(app::kMkxFull, 16.0);
  set(app::kCplsSel, 1.0);
  set(app::kGwExt, 3.0);
  set(app::kEnh, 10.0);
  set(app::kZoom, 20.0);
  return fc;
}

TEST(Qos, LadderStartsAtFullQuality) {
  auto ladder = quality_ladder();
  ASSERT_GE(ladder.size(), 2u);
  EXPECT_EQ(ladder[0].level, 0);
  EXPECT_EQ(ladder[0].extra_mkx_decimation, 1);
  EXPECT_FALSE(ladder[0].skip_guidewire);
  EXPECT_EQ(ladder[0].zoom_divisor, 1);
}

TEST(Qos, LadderIsMonotonicallyMoreAggressive) {
  auto ladder = quality_ladder();
  for (usize i = 1; i < ladder.size(); ++i) {
    EXPECT_EQ(ladder[i].level, static_cast<i32>(i));
    // Each level is at least as degraded as the previous one.
    EXPECT_GE(ladder[i].extra_mkx_decimation,
              ladder[i - 1].extra_mkx_decimation);
    EXPECT_GE(ladder[i].zoom_divisor, ladder[i - 1].zoom_divisor);
    EXPECT_GE(static_cast<i32>(ladder[i].skip_guidewire),
              static_cast<i32>(ladder[i - 1].skip_guidewire));
  }
}

TEST(Qos, CostFactorsMatchDecimation) {
  QualityLevel level;
  level.extra_mkx_decimation = 2;
  level.zoom_divisor = 2;
  EXPECT_DOUBLE_EQ(level.mkx_cost_factor(), 0.25);
  EXPECT_DOUBLE_EQ(level.zoom_cost_factor(), 0.25);
}

TEST(Qos, DegradeForecastScalesAffectedNodes) {
  auto fc = heavy_forecast();
  QualityLevel level;
  level.extra_mkx_decimation = 2;
  level.skip_guidewire = true;
  level.zoom_divisor = 2;
  auto degraded = degrade_forecast(fc, level);
  EXPECT_DOUBLE_EQ(degraded[app::kMkxFull].serial_ms, 4.0);
  EXPECT_DOUBLE_EQ(degraded[app::kZoom].serial_ms, 5.0);
  EXPECT_FALSE(degraded[app::kGwExt].active);
  // Unaffected nodes unchanged.
  EXPECT_DOUBLE_EQ(degraded[app::kRdgFull].serial_ms, 45.0);
}

TEST(Qos, GenerousBudgetStaysAtFullQuality) {
  plat::CostParams params;
  QualityPlan d = walk_quality_ladder(params, heavy_forecast(), 200.0, 4, 8, 0);
  EXPECT_EQ(d.level, 0);
  EXPECT_TRUE(d.plan.fits_budget);
  EXPECT_EQ(d.plan.plan, app::serial_plan());
}

TEST(Qos, ModerateBudgetParallelizesBeforeDegrading) {
  plat::CostParams params;
  // 50 ms: reachable with stripes at full quality.
  QualityPlan d = walk_quality_ladder(params, heavy_forecast(), 50.0, 4, 8, 0);
  EXPECT_EQ(d.level, 0);
  EXPECT_TRUE(d.plan.fits_budget);
  EXPECT_NE(d.plan.plan, app::serial_plan());
}

TEST(Qos, TightBudgetDegradesQuality) {
  plat::CostParams params;
  // 22 ms is below what 4-way striping of the full-quality graph achieves.
  QualityPlan d = walk_quality_ladder(params, heavy_forecast(), 22.0, 4, 8, 0);
  EXPECT_GT(d.level, 0);
  EXPECT_TRUE(d.plan.fits_budget);
}

TEST(Qos, ImpossibleBudgetReturnsLowestQualityWidestPlan) {
  plat::CostParams params;
  QualityPlan d = walk_quality_ladder(params, heavy_forecast(), 0.5, 4, 8, 0);
  EXPECT_EQ(d.level,
            static_cast<i32>(quality_ladder().size()) - 1);
  EXPECT_FALSE(d.plan.fits_budget);
}

TEST(Qos, DecisionLatencyMonotoneInBudget) {
  plat::CostParams params;
  f64 prev_level = 1e9;
  for (f64 budget : {15.0, 25.0, 40.0, 80.0, 200.0}) {
    QualityPlan d =
        walk_quality_ladder(params, heavy_forecast(), budget, 4, 8, 0);
    EXPECT_LE(static_cast<f64>(d.level), prev_level)
        << "budget " << budget;
    prev_level = static_cast<f64>(d.level);
  }
}

TEST(Qos, WalkStartsAtTheGivenLevelAndNeverRecovers) {
  plat::CostParams params;
  // Even a generous budget keeps the starting level: lifting quality is the
  // caller's hysteresis decision, not the walk's.
  QualityPlan d = walk_quality_ladder(params, heavy_forecast(), 200.0, 4, 8, 2);
  EXPECT_EQ(d.level, 2);
  EXPECT_TRUE(d.plan.fits_budget);
  // An out-of-range start clamps to the ladder.
  d = walk_quality_ladder(params, heavy_forecast(), 200.0, 4, 8, 99);
  EXPECT_EQ(d.level, static_cast<i32>(quality_ladder().size()) - 1);
}

}  // namespace
}  // namespace tc::rt
