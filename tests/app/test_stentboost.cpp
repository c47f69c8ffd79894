#include "app/stentboost.hpp"

#include <array>

#include <gtest/gtest.h>

#include "graph/scenario.hpp"

namespace tc::app {
namespace {

StentBoostConfig fast_config(u64 seed = 7) {
  StentBoostConfig c = StentBoostConfig::make(128, 128, 100, seed);
  c.sequence.contrast_in_frame = 25;
  c.sequence.contrast_out_frame = 70;
  return c;
}

TEST(StentBoost, NodeNamesAndParallelism) {
  EXPECT_EQ(node_name(kRdgFull), "RDG_FULL");
  EXPECT_EQ(node_name(kZoom), "ZOOM");
  EXPECT_TRUE(node_data_parallel(kRdgFull));
  EXPECT_TRUE(node_data_parallel(kEnh));
  EXPECT_FALSE(node_data_parallel(kCplsSel));
  EXPECT_FALSE(node_data_parallel(kGwExt));
}

TEST(StentBoost, GraphShape) {
  StentBoostApp app(fast_config());
  EXPECT_EQ(app.graph().task_count(), static_cast<usize>(kNodeCount));
  EXPECT_EQ(app.graph().switch_count(), static_cast<usize>(kSwitchCount));
  EXPECT_GT(app.graph().edge_count(), 5u);
  // The graph must be acyclic.
  EXPECT_EQ(app.graph().topological_order().size(),
            static_cast<usize>(kNodeCount));
}

TEST(StentBoost, FirstFrameRunsFullFrameVariants) {
  StentBoostApp app(fast_config());
  graph::FrameRecord r = app.process_frame(0);
  EXPECT_TRUE(r.find(kRdgFull)->executed);
  EXPECT_FALSE(r.find(kRdgRoi)->executed);
  EXPECT_TRUE(r.find(kMkxFull)->executed);
  EXPECT_FALSE(r.find(kMkxRoi)->executed);
  // No previous frame: registration cannot run.
  EXPECT_FALSE(r.find(kReg)->executed);
  EXPECT_FALSE(r.find(kEnh)->executed);
}

TEST(StentBoost, RoiModeEngagesAfterAcquisition) {
  StentBoostApp app(fast_config());
  (void)app.process_frame(0);
  ASSERT_TRUE(app.roi_valid());
  graph::FrameRecord r = app.process_frame(1);
  EXPECT_TRUE(r.find(kRdgRoi)->executed);
  EXPECT_FALSE(r.find(kRdgFull)->executed);
  EXPECT_TRUE(r.find(kMkxRoi)->executed);
  // ROI granularity is smaller than the full frame.
  EXPECT_LT(r.roi_pixels, 128.0 * 128.0 * app.config().cost.resolution_scale);
}

TEST(StentBoost, EnhAndZoomGatedByRegistration) {
  StentBoostApp app(fast_config());
  std::vector<graph::FrameRecord> records = app.run(30);
  for (const auto& r : records) {
    bool reg_ok = ((r.scenario >> kSwReg) & 1u) != 0;
    EXPECT_EQ(r.find(kEnh)->executed, reg_ok) << "frame " << r.frame;
    EXPECT_EQ(r.find(kZoom)->executed, reg_ok) << "frame " << r.frame;
  }
}

TEST(StentBoost, LatencyIsSumOfExecutedTasks) {
  StentBoostApp app(fast_config());
  graph::FrameRecord r = app.process_frame(0);
  f64 sum = 0.0;
  for (const auto& t : r.tasks) {
    if (t.executed) sum += t.simulated_ms;
  }
  EXPECT_NEAR(r.latency_ms, sum, 1e-9);
  EXPECT_GT(r.latency_ms, 0.0);
}

TEST(StentBoost, DeterministicAcrossInstances) {
  StentBoostApp a(fast_config(11));
  StentBoostApp b(fast_config(11));
  for (i32 t = 0; t < 10; ++t) {
    graph::FrameRecord ra = a.process_frame(t);
    graph::FrameRecord rb = b.process_frame(t);
    EXPECT_EQ(ra.scenario, rb.scenario);
    EXPECT_DOUBLE_EQ(ra.latency_ms, rb.latency_ms);
  }
}

TEST(StentBoost, ResetRestoresInitialState) {
  StentBoostApp app(fast_config());
  (void)app.run(10);
  app.reset();
  EXPECT_TRUE(app.rdg_active());
  EXPECT_FALSE(app.roi_valid());
  EXPECT_FALSE(app.last_couple().has_value());
  graph::FrameRecord r = app.process_frame(0);
  EXPECT_TRUE(r.find(kRdgFull)->executed);
}

TEST(StentBoost, ForceFullFrameNeverEntersRoiMode) {
  StentBoostConfig c = fast_config();
  c.force_full_frame = true;
  StentBoostApp app(c);
  auto records = app.run(20);
  for (const auto& r : records) {
    EXPECT_FALSE(r.find(kRdgRoi)->executed);
    EXPECT_FALSE(r.find(kMkxRoi)->executed);
  }
}

TEST(StentBoost, RdgSwitchesOffInQuietScenes) {
  StentBoostConfig c = fast_config();
  // No bolus at all: after acquisition the scene is quiet and ridge
  // detection must switch off via the hysteresis.
  c.sequence.contrast_in_frame = 10000;
  c.sequence.contrast_out_frame = 10001;
  StentBoostApp app(c);
  auto records = app.run(30);
  bool rdg_off_seen = false;
  for (const auto& r : records) {
    if (((r.scenario >> kSwRdg) & 1u) == 0) rdg_off_seen = true;
  }
  EXPECT_TRUE(rdg_off_seen);
}

TEST(StentBoost, BolusTurnsRdgBackOn) {
  StentBoostConfig c = fast_config();
  c.sequence.contrast_in_frame = 40;
  c.sequence.contrast_out_frame = 90;
  StentBoostApp app(c);
  auto records = app.run(70);
  // Find a frame where RDG was off before the bolus...
  bool off_before = false;
  bool on_during = false;
  for (const auto& r : records) {
    bool rdg = ((r.scenario >> kSwRdg) & 1u) != 0;
    if (r.frame < 40 && !rdg) off_before = true;
    if (r.frame > 45 && rdg) on_during = true;
  }
  EXPECT_TRUE(off_before);
  EXPECT_TRUE(on_during);
}

TEST(StentBoost, EnhancedOutputProducedWhenRegistered) {
  StentBoostApp app(fast_config());
  auto records = app.run(10);
  bool any_output = false;
  for (const auto& r : records) {
    if (r.find(kZoom)->executed) any_output = true;
  }
  EXPECT_TRUE(any_output);
  EXPECT_FALSE(app.last_output().empty());
  EXPECT_EQ(app.last_output().width(), app.config().zoom.output_width);
}

TEST(StentBoost, WorkReportsCarryBufferSizes) {
  StentBoostApp app(fast_config());
  graph::FrameRecord r = app.process_frame(0);
  const graph::TaskExecution* rdg = r.find(kRdgFull);
  ASSERT_TRUE(rdg->executed);
  // Input = full frame u16 at the rendering resolution.
  EXPECT_EQ(rdg->work.input_bytes, 128u * 128u * 2u);
  EXPECT_GT(rdg->work.intermediate_bytes, 0u);
  EXPECT_GT(rdg->work.output_bytes, 0u);
}

TEST(StentBoost, RoiPixelsReportedAtPaperScale) {
  StentBoostApp app(fast_config());
  graph::FrameRecord r = app.process_frame(0);
  // Full frame at scale: 128^2 * (1024^2 / 128^2) = 1024^2.
  EXPECT_NEAR(r.roi_pixels, 1024.0 * 1024.0, 1.0);
}

TEST(StentBoost, StripePlanAffectsSimulatedTime) {
  StentBoostConfig c = fast_config();
  c.force_full_frame = true;
  StentBoostApp serial(c);
  StentBoostApp striped(c);
  StripePlan plan = serial_plan();
  plan[kRdgFull] = 4;
  striped.set_stripe_plan(plan);
  graph::FrameRecord rs = serial.process_frame(0);
  graph::FrameRecord rp = striped.process_frame(0);
  EXPECT_LT(rp.find(kRdgFull)->simulated_ms,
            0.5 * rs.find(kRdgFull)->simulated_ms);
}

/// Admit frame `t` with the front state forced to ridge detection on the
/// given ROI (full frame when empty), run its front and return the context
/// (valid until retire_and_recycle).
FrameContext& run_forced_front(StentBoostApp& app, i32 t, Rect roi) {
  FrameContext& ctx = *app.admit_frame(t);
  ctx.front.rdg_active = true;
  ctx.front.roi_valid = !roi.empty();
  ctx.front.roi = roi;
  app.run_front(ctx);
  return ctx;
}

void retire_and_recycle(StentBoostApp& app, FrameContext& ctx) {
  app.run_back(ctx);
  (void)app.retire_frame(ctx);
}

TEST(StentBoost, ReusedRidgePlanesMatchFreshOnesAcrossRoiChanges) {
  // One context's planes go through full -> ROI -> smaller ROI -> shifted
  // ROI -> full frames; every pixel its RDG did not write this frame must
  // read zero, as in a fresh context's planes.
  const std::array<Rect, 5> rois{Rect{}, Rect{16, 20, 96, 88},
                                 Rect{40, 44, 48, 40}, Rect{52, 30, 48, 40},
                                 Rect{}};
  for (const i32 stripes : {1, 3}) {
    StripePlan plan = serial_plan();
    plan[kRdgFull] = stripes;
    plan[kRdgRoi] = stripes;
    StentBoostApp reused(fast_config());
    reused.set_stripe_plan(plan);
    for (usize i = 0; i < rois.size(); ++i) {
      const i32 t = 40 + static_cast<i32>(i);
      StentBoostApp fresh_app(fast_config());
      fresh_app.set_stripe_plan(plan);
      FrameContext& ctx = run_forced_front(reused, t, rois[i]);
      FrameContext& fresh = run_forced_front(fresh_app, t, rois[i]);
      ASSERT_TRUE(ctx.ridge_valid);
      EXPECT_TRUE(ctx.ridge.response == fresh.ridge.response)
          << "stripes " << stripes << " step " << i;
      EXPECT_TRUE(ctx.ridge.blobness == fresh.ridge.blobness)
          << "stripes " << stripes << " step " << i;
      retire_and_recycle(reused, ctx);
      retire_and_recycle(fresh_app, fresh);
    }
  }
}

TEST(StentBoost, ScenarioLabelsWellFormed) {
  StentBoostApp app(fast_config());
  graph::FrameRecord r = app.process_frame(0);
  std::string label =
      graph::scenario_label(r.scenario, app.graph().switch_names());
  EXPECT_NE(label.find("RDG="), std::string::npos);
  EXPECT_NE(label.find("ROI="), std::string::npos);
  EXPECT_NE(label.find("REG="), std::string::npos);
}

}  // namespace
}  // namespace tc::app
