// Integration test: the Triple-C loop's observability hooks (exec::Executor
// on the simulated source) must agree with the values computed by
// tripleC/accuracy and with the frames the loop actually returned.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "obs/exporters.hpp"
#include "obs/obs.hpp"
#include "exec/executor.hpp"
#include "tripleC/accuracy.hpp"

namespace tc::exec {
namespace {

app::StentBoostConfig test_config(u64 seed = 77) {
  app::StentBoostConfig c = app::StentBoostConfig::make(128, 128, 120, seed);
  c.sequence.contrast_in_frame = 25;
  c.sequence.contrast_out_frame = 80;
  return c;
}

model::GraphPredictor trained_predictor(const app::StentBoostConfig& base) {
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

ExecutorConfig sim_config(i32 warmup_frames) {
  ExecutorConfig ec;
  ec.source = MeasurementSource::Simulated;
  ec.policy = DeadlinePolicy::Run;
  ec.warmup_frames = warmup_frames;
  ec.deadline_headroom = 1.10;
  ec.worker_threads = 2;
  return ec;
}

/// Enables the global observability context for the test body and restores
/// the disabled/empty state afterwards so other tests are unaffected.
class ObsRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::global().clear();
    if (!obs::enabled()) {
      GTEST_SKIP() << "observability compiled out (TRIPLEC_OBS=OFF)";
    }
  }
  void TearDown() override {
    obs::global().clear();
    obs::set_enabled(false);
  }

  static const obs::Histogram* find_histogram(const std::string& name) {
    for (const auto& e : obs::global().metrics.entries()) {
      if (e.type == obs::MetricType::Histogram && e.name == name) {
        return e.histogram;
      }
    }
    return nullptr;
  }

  static f64 counter_value(const std::string& name) {
    for (const auto& e : obs::global().metrics.entries()) {
      if (e.type == obs::MetricType::Counter && e.name == name &&
          e.labels.empty()) {
        return e.counter->value();
      }
    }
    return -1.0;
  }

  static f64 gauge_value(const std::string& name) {
    for (const auto& e : obs::global().metrics.entries()) {
      if (e.type == obs::MetricType::Gauge && e.name == name &&
          e.labels.empty()) {
        return e.gauge->value();
      }
    }
    return -1.0;
  }
};

TEST_F(ObsRuntimeTest, MetricsMatchManagedFramesAndAccuracyReport) {
  app::StentBoostConfig c = test_config();
  constexpr i32 kWarmup = 8;
  Executor loop(c, sim_config(kWarmup), trained_predictor(c));

  constexpr i32 kFrames = 80;
  std::vector<ExecutedFrame> frames;
  std::vector<f64> predicted;
  std::vector<f64> measured;
  for (i32 t = 0; t < kFrames; ++t) {
    frames.push_back(loop.step(t));
    predicted.push_back(frames.back().predicted_ms);
    measured.push_back(frames.back().measured_ms);
  }

  EXPECT_DOUBLE_EQ(counter_value("tripleC_frames_total"),
                   static_cast<f64>(kFrames));
  EXPECT_EQ(obs::global().frames.size(), static_cast<usize>(kFrames));

  // Deadline misses recounted from the frames the loop returned.  Warm-up
  // frames (deadline not yet set) never count.
  f64 expected_misses = 0.0;
  for (i32 t = 0; t < kFrames; ++t) {
    if (t >= kWarmup &&
        frames[static_cast<usize>(t)].measured_ms > loop.deadline_ms()) {
      expected_misses += 1.0;
    }
  }
  EXPECT_DOUBLE_EQ(counter_value("tripleC_deadline_miss_total"),
                   expected_misses);

  // The per-frame error histogram uses the exact formula and skip rule of
  // model::evaluate_accuracy, so its mean must equal the report's MAPE when
  // fed the same series.
  model::AccuracyReport acc = model::evaluate_accuracy(predicted, measured);
  const obs::Histogram* err =
      find_histogram("tripleC_frame_prediction_error_pct");
  ASSERT_NE(err, nullptr);
  ASSERT_GT(err->count(), 0u);
  EXPECT_NEAR(err->sum() / static_cast<f64>(err->count()), acc.mape_pct, 1e-9);

  // evaluate_accuracy also published its headline gauges.
  EXPECT_NEAR(gauge_value("tripleC_accuracy_mape_pct"), acc.mape_pct, 1e-12);
  EXPECT_NEAR(gauge_value("tripleC_accuracy_mean_pct"), acc.mean_accuracy_pct,
              1e-12);

  EXPECT_NEAR(gauge_value("tripleC_deadline_ms"), loop.deadline_ms(), 1e-12);
}

TEST_F(ObsRuntimeTest, TracerHoldsFrameTaskSpansAndExportsAreWellFormed) {
  app::StentBoostConfig c = test_config(31);
  Executor loop(c, sim_config(5), trained_predictor(c));
  for (i32 t = 0; t < 20; ++t) (void)loop.step(t);

  obs::ObsContext& ctx = obs::global();
  ASSERT_GT(ctx.flight.size(), 0u);
  const std::string json = obs::chrome_trace_json(ctx);
  const common::JsonValue doc = common::JsonValue::parse(json);
  usize frame_spans = 0;
  usize task_spans = 0;
  bool saw_rdg = false;
  for (const common::JsonValue& e : doc.get("traceEvents").items()) {
    if (e.string_or("ph", "") != "X" || e.number_or("pid", 0) != obs::kSimPid) {
      continue;
    }
    if (e.string_or("cat", "") == "frame") ++frame_spans;
    if (e.string_or("cat", "") == "task") {
      ++task_spans;
      // Task spans carry the real node names installed by the app.
      saw_rdg |= e.string_or("name", "").rfind("RDG", 0) == 0;
    }
  }
  // Every frame is laid out on the simulated timeline.
  EXPECT_EQ(frame_spans, 20u);
  // Every frame executes at least RDG + MKX + ENH + ZOOM.
  EXPECT_GE(task_spans, 4u * 20u);
  EXPECT_TRUE(saw_rdg);

  const std::string prom = obs::to_prometheus(ctx.metrics);
  EXPECT_NE(prom.find("# TYPE tripleC_frames_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE tripleC_frame_measured_ms histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("tripleC_frame_measured_ms_bucket"), std::string::npos);

  const std::string csv = obs::frame_log_csv(ctx.frames);
  // Header + one row per frame.
  EXPECT_EQ(static_cast<usize>(std::count(csv.begin(), csv.end(), '\n')), 21u);
}

TEST_F(ObsRuntimeTest, DisabledObservabilityRecordsNothing) {
  obs::set_enabled(false);
  app::StentBoostConfig c = test_config(55);
  Executor loop(c, sim_config(10), trained_predictor(c));
  for (i32 t = 0; t < 12; ++t) (void)loop.step(t);
  // Instruments registered by earlier (enabled) tests survive clear() by
  // design; with the layer disabled none of them may accumulate values.
  for (const auto& e : obs::global().metrics.entries()) {
    switch (e.type) {
      case obs::MetricType::Counter:
        EXPECT_DOUBLE_EQ(e.counter->value(), 0.0) << e.name;
        break;
      case obs::MetricType::Gauge:
        EXPECT_DOUBLE_EQ(e.gauge->value(), 0.0) << e.name;
        break;
      case obs::MetricType::Histogram:
        EXPECT_EQ(e.histogram->count(), 0u) << e.name;
        break;
    }
  }
  EXPECT_EQ(obs::global().flight.size(), 0u);
  EXPECT_EQ(obs::global().frames.size(), 0u);
}

}  // namespace
}  // namespace tc::exec
