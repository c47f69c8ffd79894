#include "runtime/partition.hpp"

#include <gtest/gtest.h>

#include "analysis/schedulability.hpp"

namespace tc::rt {
namespace {

plat::CostParams params() { return plat::CostParams{}; }

std::vector<NodeForecast> forecast_of(std::vector<f64> serial_ms,
                                      std::vector<bool> dp) {
  std::vector<NodeForecast> fc(app::kNodeCount);
  for (usize i = 0; i < serial_ms.size() && i < fc.size(); ++i) {
    fc[i].serial_ms = serial_ms[i];
    fc[i].active = serial_ms[i] > 0.0;
    fc[i].data_parallel = i < dp.size() ? dp[i] : false;
  }
  return fc;
}

TEST(Partition, StripedMsFromSerialOneStripeIsIdentity) {
  EXPECT_DOUBLE_EQ(striped_ms_from_serial(params(), 40.0, 1), 40.0);
}

TEST(Partition, StripedMsHalvesComputePlusOverhead) {
  plat::CostParams p = params();
  f64 two = striped_ms_from_serial(p, 40.0, 2);
  f64 expected = (40.0 - p.dispatch_ms) / 2.0 * p.default_imbalance +
                 p.dispatch_ms + p.stripe_sync_ms;
  EXPECT_DOUBLE_EQ(two, expected);
  EXPECT_LT(two, 40.0);
  EXPECT_GT(two, 20.0);  // overhead makes it sub-linear
}

TEST(Partition, StripingTinyTaskDoesNotHelp) {
  plat::CostParams p = params();
  f64 serial = 0.3;
  EXPECT_GT(striped_ms_from_serial(p, serial, 4), serial * 0.9);
}

TEST(Partition, EstimateLatencySumsActiveNodes) {
  auto fc = forecast_of({40.0, 0.0, 10.0}, {true, true, true});
  f64 lat = estimate_latency(params(), fc, app::serial_plan());
  EXPECT_DOUBLE_EQ(lat, 50.0);
}

TEST(Partition, EstimateLatencyIgnoresPlanForNonDataParallel) {
  auto fc = forecast_of({40.0}, {false});
  app::StripePlan plan = app::serial_plan();
  plan[0] = 4;
  EXPECT_DOUBLE_EQ(estimate_latency(params(), fc, plan), 40.0);
}

TEST(Partition, ChoosePlanStaysSerialWhenBudgetFits) {
  auto fc = forecast_of({30.0, 20.0}, {true, true});
  PlanChoice c = choose_plan(params(), fc, 60.0, 4, 8);
  EXPECT_TRUE(c.fits_budget);
  EXPECT_EQ(c.plan, app::serial_plan());
}

TEST(Partition, ChoosePlanWidensMostExpensiveNode) {
  auto fc = forecast_of({40.0, 10.0}, {true, true});
  PlanChoice c = choose_plan(params(), fc, 35.0, 4, 8);
  EXPECT_TRUE(c.fits_budget);
  EXPECT_GT(c.plan[0], 1);
  EXPECT_EQ(c.plan[1], 1);  // the cheap node stays serial
  EXPECT_LE(c.estimated_ms, 35.0);
}

TEST(Partition, ChoosePlanUsesMinimalParallelism) {
  auto fc = forecast_of({40.0}, {true});
  // Budget reachable with 2 stripes; plan must not jump to 4.
  plat::CostParams p = params();
  f64 two = striped_ms_from_serial(p, 40.0, 2);
  PlanChoice c = choose_plan(p, fc, two + 1.0, 8, 8);
  EXPECT_TRUE(c.fits_budget);
  EXPECT_EQ(c.plan[0], 2);
}

TEST(Partition, ChoosePlanReturnsWidestWhenBudgetUnreachable) {
  auto fc = forecast_of({100.0, 100.0}, {true, true});
  PlanChoice c = choose_plan(params(), fc, 1.0, 4, 8);
  EXPECT_FALSE(c.fits_budget);
  EXPECT_EQ(c.plan[0], 4);
  EXPECT_EQ(c.plan[1], 4);
}

TEST(Partition, ChoosePlanRespectsCpuCount) {
  auto fc = forecast_of({100.0}, {true});
  PlanChoice c = choose_plan(params(), fc, 1.0, 16, 2);
  EXPECT_LE(c.plan[0], 2);
}

TEST(Partition, ChoosePlanNeverWidensInactiveNodes) {
  auto fc = forecast_of({0.0, 100.0}, {true, true});
  PlanChoice c = choose_plan(params(), fc, 10.0, 4, 8);
  EXPECT_EQ(c.plan[0], 1);
}

TEST(Partition, PlanToStringSerial) {
  EXPECT_EQ(plan_to_string(app::serial_plan()), "serial");
}

TEST(Partition, PlanToStringNamesStripedNodes) {
  app::StripePlan plan = app::serial_plan();
  plan[app::kRdgFull] = 2;
  plan[app::kZoom] = 4;
  std::string s = plan_to_string(plan);
  EXPECT_NE(s.find("RDG_FULLx2"), std::string::npos);
  EXPECT_NE(s.find("ZOOMx4"), std::string::npos);
}

TEST(Partition, EnumerateChainMatchesChoosePlanAtEveryBudget) {
  auto fc = forecast_of({45.0, 20.0, 12.0}, {true, true, true});
  const auto chain = enumerate_plan_candidates(params(), fc, 4, 8);
  ASSERT_GE(chain.size(), 2u);
  // Budget set exactly at a candidate's estimate: choose_plan must return
  // that candidate (first fit), proving the audit and the runtime search
  // the same plan space.
  auto as_vec = [](const app::StripePlan& plan) {
    return analysis::sched::PlanVec(plan.begin(), plan.end());
  };
  for (const analysis::sched::PlanCandidate& cand : chain) {
    PlanChoice c = choose_plan(params(), fc, cand.estimated_ms, 4, 8);
    EXPECT_TRUE(c.fits_budget);
    EXPECT_EQ(as_vec(c.plan), cand.plan);
    EXPECT_DOUBLE_EQ(c.estimated_ms, cand.estimated_ms);
  }
  // Budget below even the widest plan: the last candidate, flagged unfit.
  PlanChoice worst = choose_plan(params(), fc, chain.back().estimated_ms - 1.0,
                                 4, 8);
  EXPECT_FALSE(worst.fits_budget);
  EXPECT_EQ(as_vec(worst.plan), chain.back().plan);
}

TEST(Partition, ChainMatchesSchedulabilityCore) {
  auto fc = forecast_of({45.0, 20.0, 0.0, 12.0}, {true, true, true, false});
  const auto chain = enumerate_plan_candidates(params(), fc, 4, 8);

  std::vector<analysis::sched::ScheduleNode> nodes(fc.size());
  for (usize i = 0; i < fc.size(); ++i) {
    nodes[i].active = fc[i].active;
    nodes[i].data_parallel = fc[i].data_parallel;
    nodes[i].serial_ms = fc[i].serial_ms;
  }
  const auto core = analysis::sched::enumerate_plans(params(), nodes, 4, 8);

  ASSERT_EQ(chain.size(), core.size());
  for (usize c = 0; c < chain.size(); ++c) {
    EXPECT_DOUBLE_EQ(chain[c].estimated_ms, core[c].estimated_ms);
    ASSERT_EQ(chain[c].plan.size(), core[c].plan.size());
    for (usize n = 0; n < core[c].plan.size(); ++n) {
      EXPECT_EQ(chain[c].plan[n], core[c].plan[n])
          << "candidate " << c << " node " << n;
    }
  }
}

// Monotonicity property: more budget never produces a wider plan.
class BudgetMonotone : public ::testing::TestWithParam<f64> {};

TEST_P(BudgetMonotone, WideningDecreasesWithBudget) {
  auto fc = forecast_of({45.0, 20.0, 12.0}, {true, true, true});
  PlanChoice tight = choose_plan(params(), fc, GetParam(), 4, 8);
  PlanChoice loose = choose_plan(params(), fc, GetParam() + 20.0, 4, 8);
  i32 tight_total = 0;
  i32 loose_total = 0;
  for (usize i = 0; i < tight.plan.size(); ++i) {
    tight_total += tight.plan[i];
    loose_total += loose.plan[i];
  }
  EXPECT_LE(loose_total, tight_total);
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetMonotone,
                         ::testing::Values(20.0, 30.0, 40.0, 55.0, 70.0));

}  // namespace
}  // namespace tc::rt
