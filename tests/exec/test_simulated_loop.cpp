// The paper's runtime manager (§6): exec::Executor on the simulated source,
// driving a GraphPredictor trained offline.  Budget initialization, plan
// selection, the output delay line, QoS degradation and the startup gates.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/stats.hpp"
#include "exec/executor.hpp"
#include "tripleC/accuracy.hpp"

namespace tc::exec {
namespace {

/// Small, fast configuration for simulated-loop tests.
app::StentBoostConfig test_config(u64 seed = 77) {
  app::StentBoostConfig c = app::StentBoostConfig::make(128, 128, 120, seed);
  c.sequence.contrast_in_frame = 25;
  c.sequence.contrast_out_frame = 80;
  return c;
}

/// The loop as the paper benches run it: simulated source, no QoS, the
/// warm-up and headroom of the paper's initialization phase.
ExecutorConfig sim_config() {
  ExecutorConfig ec;
  ec.source = MeasurementSource::Simulated;
  ec.policy = DeadlinePolicy::Run;
  ec.warmup_frames = 10;
  ec.deadline_headroom = 1.10;
  ec.worker_threads = 2;
  return ec;
}

model::GraphPredictor trained_predictor(const app::StentBoostConfig& base) {
  // Train on two short sequences with different seeds.
  std::vector<std::vector<graph::FrameRecord>> seqs;
  for (u64 s : {101ull, 202ull}) {
    app::StentBoostConfig c = base;
    c.sequence.seed = s;
    app::StentBoostApp app(c);
    seqs.push_back(app.run(60));
  }
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  gp.configure_task(app::kRdgRoi,
                    model::PredictorConfig{
                        model::PredictorKind::LinearMarkov, 0.25, 2.0, 64});
  for (i32 node : {app::kMkxFull, app::kMkxRoi, app::kReg, app::kRoiEst,
                   app::kEnh, app::kZoom}) {
    gp.configure_task(node, model::PredictorConfig{
                                model::PredictorKind::Constant, 0.25, 2.0, 64});
  }
  gp.train(seqs);
  return gp;
}

TEST(Manager, StartupValidationPassesOnValidSetup) {
  app::StentBoostConfig c = test_config();
  Executor loop(c, sim_config(), trained_predictor(c));  // Strict by default
  EXPECT_FALSE(loop.validation_report().has_errors())
      << loop.validation_report().to_text();
}

TEST(Manager, StrictValidationThrowsOnBrokenPredictorConfig) {
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  // EWMA alpha 0 never updates (Eq. 1); the lint pass flags it before the
  // predictor is ever instantiated from the config.
  gp.configure_task(app::kEnh, model::PredictorConfig{
                                   model::PredictorKind::Ewma, 0.0, 2.0, 64});
  EXPECT_THROW(Executor(test_config(), sim_config(), gp),
               analysis::AnalysisError);
}

TEST(Manager, PermissiveValidationCollectsWithoutThrowing) {
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  gp.configure_task(app::kEnh, model::PredictorConfig{
                                   model::PredictorKind::Ewma, 0.0, 2.0, 64});
  ExecutorConfig ec = sim_config();
  ec.validation_policy = analysis::Policy::Permissive;
  Executor loop(test_config(), ec, gp);
  EXPECT_TRUE(loop.validation_report().has_errors());
  EXPECT_TRUE(loop.validation_report().fired("M004"));
}

TEST(Manager, ValidationCanBeDisabled) {
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  gp.configure_task(app::kEnh, model::PredictorConfig{
                                   model::PredictorKind::Ewma, 0.0, 2.0, 64});
  ExecutorConfig ec = sim_config();
  ec.validate_at_startup = false;
  Executor loop(test_config(), ec, gp);
  EXPECT_TRUE(loop.validation_report().empty());
}

TEST(Manager, StartupAuditPassesOnTrainedSetup) {
  app::StentBoostConfig c = test_config();
  ExecutorConfig ec = sim_config();
  ec.audit_at_startup = true;  // Strict policy by default
  // The handed-in trained predictor prices the proof (no throwaway
  // training); Strict enforce would throw on errors.
  Executor loop(c, ec, trained_predictor(c));
  EXPECT_FALSE(loop.audit_report().has_errors())
      << loop.audit_report().to_text();
  EXPECT_FALSE(loop.audit_report().has_warnings())
      << loop.audit_report().to_text();
}

TEST(Manager, StrictAuditThrowsOnImpossibleDeadline) {
  app::StentBoostConfig c = test_config();
  ExecutorConfig ec = sim_config();
  ec.audit_at_startup = true;
  ec.audit_options.deadline_ms = 0.01;  // no plan can meet this
  EXPECT_THROW(Executor(c, ec, trained_predictor(c)), analysis::AnalysisError);
}

TEST(Manager, BudgetInitializedAfterWarmup) {
  app::StentBoostConfig c = test_config();
  ExecutorConfig ec = sim_config();
  ec.warmup_frames = 5;
  Executor loop(c, ec, trained_predictor(c));
  EXPECT_FALSE(loop.deadline_set());
  for (i32 t = 0; t < 5; ++t) (void)loop.step(t);
  EXPECT_TRUE(loop.deadline_set());
  EXPECT_GT(loop.deadline_ms(), 0.0);
}

TEST(Manager, ExplicitBudgetSkipsWarmup) {
  app::StentBoostConfig c = test_config();
  ExecutorConfig ec = sim_config();
  ec.deadline_ms = 45.0;
  Executor loop(c, ec, trained_predictor(c));
  EXPECT_TRUE(loop.deadline_set());
  EXPECT_DOUBLE_EQ(loop.deadline_ms(), 45.0);
}

TEST(Manager, OutputDelayLineHoldsManagedFrames) {
  app::StentBoostConfig c = test_config();
  ExecutorConfig ec = sim_config();
  ec.warmup_frames = 5;
  Executor loop(c, ec, trained_predictor(c));
  for (i32 t = 0; t < 30; ++t) {
    const ExecutedFrame f = loop.step(t);
    // Managed frames leave at the deadline instant unless they overran it;
    // warm-up frames leave when they finish.
    EXPECT_DOUBLE_EQ(f.output_ms, f.managed
                                      ? std::max(f.measured_ms, f.deadline_ms)
                                      : f.measured_ms)
        << "frame " << t;
    EXPECT_GT(f.measured_ms, 0.0);
  }
}

TEST(Manager, ReducesJitterVersusStraightforwardMapping) {
  app::StentBoostConfig c = test_config();
  // Straightforward: serial plan every frame.
  app::StentBoostApp serial_app(c);
  std::vector<f64> serial_lat;
  for (i32 t = 0; t < 100; ++t) {
    serial_lat.push_back(serial_app.process_frame(t).latency_ms);
  }

  ExecutorConfig ec = sim_config();
  ec.warmup_frames = 8;
  Executor loop(c, ec, trained_predictor(c));
  std::vector<f64> managed_lat;
  for (i32 t = 0; t < 100; ++t) {
    const ExecutedFrame f = loop.step(t);
    if (t >= 8) managed_lat.push_back(f.output_ms);
  }

  // Jitter (stddev) of the delivered output must drop substantially (the
  // paper reports ~70%).
  EXPECT_LT(stddev(managed_lat), 0.5 * stddev(serial_lat));
}

TEST(Manager, PredictionsTrackMeasurements) {
  app::StentBoostConfig c = test_config();
  ExecutorConfig ec = sim_config();
  ec.warmup_frames = 5;
  Executor loop(c, ec, trained_predictor(c));
  std::vector<f64> pred;
  std::vector<f64> meas;
  for (i32 t = 0; t < 100; ++t) {
    const ExecutedFrame f = loop.step(t);
    if (t >= 5) {
      pred.push_back(f.predicted_ms);
      meas.push_back(f.measured_ms);
    }
  }
  model::AccuracyReport acc = model::evaluate_accuracy(pred, meas);
  // The forecast conservatively includes ENH+ZOOM, so accuracy is bounded
  // below by the scenario mix; it must still be clearly informative.
  EXPECT_GT(acc.mean_accuracy_pct, 60.0);
}

TEST(Manager, StripePlansOnlyWhenBudgetRequires) {
  app::StentBoostConfig c = test_config();
  ExecutorConfig ec = sim_config();
  ec.deadline_ms = 1000.0;  // huge budget: never parallelize
  Executor loop(c, ec, trained_predictor(c));
  for (i32 t = 0; t < 20; ++t) {
    const ExecutedFrame f = loop.step(t);
    EXPECT_EQ(f.plan, app::serial_plan()) << "frame " << t;
  }
}

TEST(Manager, TightBudgetForcesParallelization) {
  app::StentBoostConfig c = test_config();
  c.force_full_frame = true;  // keep the expensive full-frame tasks active
  ExecutorConfig ec = sim_config();
  ec.deadline_ms = 30.0;  // below the serial full-frame latency
  Executor loop(c, ec, trained_predictor(c));
  bool any_striped = false;
  for (i32 t = 0; t < 20; ++t) {
    const ExecutedFrame f = loop.step(t);
    if (f.plan != app::serial_plan()) any_striped = true;
  }
  EXPECT_TRUE(any_striped);
}

TEST(Manager, RunReturnsAllFrames) {
  app::StentBoostConfig c = test_config();
  Executor loop(c, sim_config(), trained_predictor(c));
  auto frames = loop.run(30);
  EXPECT_EQ(frames.size(), 30u);
  for (usize i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].frame, static_cast<i32>(i));
  }
}

TEST(Manager, ForecastMarksActiveNodes) {
  app::StentBoostConfig c = test_config();
  Executor loop(c, sim_config(), trained_predictor(c));
  auto fc = loop.forecast();
  ASSERT_EQ(fc.size(), static_cast<usize>(app::kNodeCount));
  // Before any frame: RDG active, no ROI → full-frame variants active.
  EXPECT_TRUE(fc[app::kRdgFull].active);
  EXPECT_FALSE(fc[app::kRdgRoi].active);
  EXPECT_TRUE(fc[app::kMkxFull].active);
  EXPECT_FALSE(fc[app::kMkxRoi].active);
  EXPECT_TRUE(fc[app::kCplsSel].active);
  EXPECT_FALSE(fc[app::kCplsSel].data_parallel);
}


// ---------------------------------------------------------------------------
// QoS: the Degrade policy meets an otherwise-impossible budget by walking the
// quality ladder down, and keeps full quality when the budget allows.
// ---------------------------------------------------------------------------

app::StentBoostConfig qos_config() {
  app::StentBoostConfig c = app::StentBoostConfig::make(128, 128, 80, 31);
  c.force_full_frame = true;  // keep the expensive full-frame path active
  c.sequence.contrast_in_frame = 0;
  return c;
}

model::GraphPredictor quick_predictor(const app::StentBoostConfig& base) {
  std::vector<std::vector<graph::FrameRecord>> seqs;
  app::StentBoostConfig c = base;
  c.sequence.seed = 404;
  app::StentBoostApp app(c);
  seqs.push_back(app.run(40));
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  gp.train(seqs);
  return gp;
}

ExecutorConfig qos_loop_config(f64 budget_ms) {
  ExecutorConfig ec = sim_config();
  ec.deadline_ms = budget_ms;
  ec.policy = DeadlinePolicy::Degrade;
  return ec;
}

TEST(QosManager, DegradesUnderImpossibleBudget) {
  app::StentBoostConfig c = qos_config();
  // 25 ms is unreachable at full quality.
  Executor loop(c, qos_loop_config(25.0), quick_predictor(c));
  bool degraded = false;
  for (i32 t = 0; t < 20; ++t) {
    const ExecutedFrame f = loop.step(t);
    if (f.quality_level > 0) degraded = true;
  }
  EXPECT_TRUE(degraded);
  // The app-level knobs were actually applied.
  const app::StentBoostApp& app = loop.app();
  EXPECT_TRUE(app.quality_extra_decimation() > 1 ||
              app.quality_skip_guidewire() ||
              app.quality_zoom_divisor() > 1);
}

TEST(QosManager, FullQualityRestoredWithGenerousBudget) {
  app::StentBoostConfig c = qos_config();
  Executor loop(c, qos_loop_config(500.0), quick_predictor(c));
  for (i32 t = 0; t < 10; ++t) {
    const ExecutedFrame f = loop.step(t);
    EXPECT_EQ(f.quality_level, 0) << "frame " << t;
  }
  EXPECT_EQ(loop.app().quality_extra_decimation(), 1);
  EXPECT_FALSE(loop.app().quality_skip_guidewire());
}

TEST(QosManager, DegradedRunStillMeetsBudgetMostFrames) {
  app::StentBoostConfig c = qos_config();
  const f64 budget_ms = 30.0;
  Executor loop(c, qos_loop_config(budget_ms), quick_predictor(c));
  i32 within = 0;
  const i32 frames = 30;
  for (i32 t = 0; t < frames; ++t) {
    const ExecutedFrame f = loop.step(t);
    if (f.measured_ms <= budget_ms * 1.15) ++within;
  }
  EXPECT_GT(within, frames * 3 / 5);
}

}  // namespace
}  // namespace tc::exec
