// Stripe-parallel execution — simulated *and* real (thread pool) — must be
// functionally identical to serial execution: same scenarios, same analysis
// results, same enhanced output.  Only the simulated times may differ.

#include "app/stentboost.hpp"

#include <gtest/gtest.h>

namespace tc::app {
namespace {

StentBoostConfig fast_config(u64 seed = 5) {
  StentBoostConfig c = StentBoostConfig::make(128, 128, 60, seed);
  c.sequence.contrast_in_frame = 15;
  c.sequence.contrast_out_frame = 45;
  return c;
}

void expect_equivalent_run(StentBoostApp& serial, StentBoostApp& striped,
                           i32 frames) {
  for (i32 t = 0; t < frames; ++t) {
    graph::FrameRecord rs = serial.process_frame(t);
    graph::FrameRecord rp = striped.process_frame(t);
    ASSERT_EQ(rs.scenario, rp.scenario) << "frame " << t;
    ASSERT_DOUBLE_EQ(rs.roi_pixels, rp.roi_pixels) << "frame " << t;
    for (usize i = 0; i < rs.tasks.size(); ++i) {
      ASSERT_EQ(rs.tasks[i].executed, rp.tasks[i].executed)
          << "frame " << t << " task " << node_name(rs.tasks[i].node);
      // (Striped runs legitimately recompute convolution halos, so work
      // totals may differ slightly; functional outputs must not.)
    }
    ASSERT_EQ(serial.last_output(), striped.last_output()) << "frame " << t;
    ASSERT_EQ(serial.current_roi(), striped.current_roi()) << "frame " << t;
  }
}

class ParallelEquivalence : public ::testing::TestWithParam<i32> {};

TEST_P(ParallelEquivalence, StripedWithoutPoolMatchesSerial) {
  const i32 stripes = GetParam();
  StentBoostApp serial(fast_config());
  StentBoostApp striped(fast_config());
  StripePlan plan = serial_plan();
  plan[kRdgFull] = stripes;
  plan[kRdgRoi] = stripes;
  plan[kEnh] = stripes;
  plan[kZoom] = stripes;
  striped.set_stripe_plan(plan);
  expect_equivalent_run(serial, striped, 25);
}

INSTANTIATE_TEST_SUITE_P(StripeCounts, ParallelEquivalence,
                         ::testing::Values(2, 3, 4));

TEST(ParallelEquivalencePool, StripedWithThreadPoolMatchesSerial) {
  plat::ThreadPool pool(4);
  StentBoostApp serial(fast_config());
  StentBoostApp striped(fast_config(), &pool);
  StripePlan plan = serial_plan();
  plan[kRdgFull] = 4;
  plan[kRdgRoi] = 4;
  plan[kEnh] = 4;
  plan[kZoom] = 4;
  striped.set_stripe_plan(plan);
  expect_equivalent_run(serial, striped, 25);
}

TEST(ParallelEquivalencePool, BandedRenderMatchesSerialOnARejectedNoiseDraw) {
  // Frame 76 of seed 443 at 128 x 128 draws a raw 0 that Box-Muller rejects
  // (RenderIdentity.RejectedNoiseDrawMatchesForEverySplit): the pooled app
  // renders its frames in 4 bands on the pool, so the bands past the
  // rejection are shaded again; every admitted frame and output must still
  // equal the serial app's.
  const StentBoostConfig config = StentBoostConfig::make(128, 128, 80, 443);
  plat::ThreadPool pool(4);
  StentBoostApp serial(config);
  StentBoostApp pooled(config, &pool);
  InstanceBudget budget;
  budget.pool_share = 4;
  pooled.set_instance_budget(budget);
  for (i32 t = 72; t <= 76; ++t) {
    const graph::FrameRecord rs = serial.process_frame(t);
    const graph::FrameRecord rp = pooled.process_frame(t);
    ASSERT_EQ(rs.scenario, rp.scenario) << "frame " << t;
    ASSERT_TRUE(*serial.stream().front().prev_frame ==
                *pooled.stream().front().prev_frame)
        << "frame " << t;
    ASSERT_EQ(serial.last_output(), pooled.last_output()) << "frame " << t;
  }
}

TEST(ParallelEquivalencePool, SimulatedTimeIndependentOfPoolPresence) {
  // Host parallelism must not leak into the simulated platform timing.
  plat::ThreadPool pool(4);
  StentBoostApp without(fast_config());
  StentBoostApp with(fast_config(), &pool);
  StripePlan plan = serial_plan();
  plan[kRdgFull] = 2;
  without.set_stripe_plan(plan);
  with.set_stripe_plan(plan);
  for (i32 t = 0; t < 10; ++t) {
    graph::FrameRecord a = without.process_frame(t);
    graph::FrameRecord b = with.process_frame(t);
    EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms) << "frame " << t;
  }
}

TEST(ParallelEquivalencePool, StripedRdgReportsPerStripe) {
  StentBoostConfig c = fast_config();
  c.force_full_frame = true;
  StentBoostApp app(c);
  StripePlan plan = serial_plan();
  plan[kRdgFull] = 3;
  app.set_stripe_plan(plan);
  graph::FrameRecord r = app.process_frame(0);
  // The striped cost includes the stripe synchronization overhead and is
  // bounded below by work/3.
  const graph::TaskExecution* rdg = r.find(kRdgFull);
  ASSERT_TRUE(rdg->executed);
  plat::TaskCost serial_cost = app.cost_model().serial_cost(rdg->work);
  EXPECT_LT(rdg->simulated_ms, serial_cost.total_ms);
  EXPECT_GT(rdg->simulated_ms, serial_cost.total_ms / 4.0);
}

}  // namespace
}  // namespace tc::app
