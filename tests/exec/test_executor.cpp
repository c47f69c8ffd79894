#include "exec/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "app/stentboost.hpp"
#include "common/json.hpp"
#include "obs/obs.hpp"

namespace tc::exec {
namespace {

constexpr i32 kSize = 96;
constexpr u64 kSeed = 7;

app::StentBoostConfig small_config(i32 frames) {
  app::StentBoostConfig config =
      app::StentBoostConfig::make(kSize, kSize, frames, kSeed);
  return config;
}

/// Config pinned to full-frame mode with RDG always on: every frame executes
/// the same heavy node set, which keeps the forecast and plan assertions
/// deterministic.
app::StentBoostConfig heavy_config(i32 frames) {
  app::StentBoostConfig config = small_config(frames);
  config.force_full_frame = true;
  config.dominant_low = 0;  // RDG never switches off
  return config;
}

TEST(Executor, WarmupDerivesDeadlineFromMeasuredMean) {
  ExecutorConfig exec_config;
  exec_config.warmup_frames = 5;
  exec_config.worker_threads = 2;
  Executor executor(small_config(16), exec_config);
  EXPECT_FALSE(executor.deadline_set());

  const std::vector<ExecutedFrame> frames = executor.run(6);
  for (i32 t = 0; t < 5; ++t) {
    EXPECT_FALSE(frames[static_cast<usize>(t)].managed) << "warm-up frame " << t;
  }
  EXPECT_TRUE(executor.deadline_set());
  EXPECT_GT(executor.deadline_ms(), 0.0);
  EXPECT_TRUE(frames[5].managed);
  EXPECT_EQ(frames[5].deadline_ms, executor.deadline_ms());

  // deadline = mean(measured warm-up latency) * headroom.
  f64 sum = 0.0;
  for (i32 t = 0; t < 5; ++t) sum += frames[static_cast<usize>(t)].measured_host_ms;
  EXPECT_NEAR(executor.deadline_ms(),
              sum / 5.0 * exec_config.deadline_headroom,
              1e-6 * executor.deadline_ms());
}

TEST(Executor, StartupAuditGatePassesOnSmallConfig) {
  ExecutorConfig exec_config;
  exec_config.worker_threads = 2;
  exec_config.audit_at_startup = true;
  Executor executor(small_config(16), exec_config);  // Strict: throws on fail
  EXPECT_FALSE(executor.audit_report().has_errors())
      << executor.audit_report().to_text();
}

TEST(Executor, StartupAuditGateRefusesImpossibleDeadline) {
  ExecutorConfig exec_config;
  exec_config.worker_threads = 2;
  exec_config.audit_at_startup = true;
  exec_config.audit_options.deadline_ms = 1.0e-4;
  EXPECT_THROW(Executor(small_config(16), exec_config),
               analysis::AnalysisError);
}

TEST(Executor, FeedbackPrimesPredictors) {
  ExecutorConfig exec_config;
  exec_config.warmup_frames = 6;
  exec_config.worker_threads = 2;
  Executor executor(heavy_config(16), exec_config);
  // Untrained EWMA per node: nothing is predicted before the first frame.
  EXPECT_FALSE(executor.predictor().trained());
  EXPECT_DOUBLE_EQ(executor.forecast()[app::kRdgFull].serial_ms, 0.0);
  executor.run(6);

  // Full-frame mode executes RDG_FULL, MKX_FULL, ENH and ZOOM every frame;
  // the online EWMAs learnt them from frame 0 on.
  const model::GraphPredictor& gp = executor.predictor();
  for (i32 node : {app::kRdgFull, app::kMkxFull, app::kEnh, app::kZoom}) {
    EXPECT_EQ(gp.task_config(node).kind, model::PredictorKind::Ewma);
    EXPECT_GT(gp.predict_task(node), 0.0) << app::node_name(node);
  }

  // The forecast mirrors the learnt predictions.
  const std::vector<rt::NodeForecast> fc = executor.host_forecast();
  EXPECT_TRUE(fc[app::kRdgFull].active);
  EXPECT_GT(fc[app::kRdgFull].serial_ms, 0.0);
  EXPECT_FALSE(fc[app::kRdgRoi].active);
}

TEST(Executor, FeedbackDestripesBeforeObserving) {
  // Simulated source, tight deadline: frame 0 plans serially on the zero
  // forecast, frame 1 stripes RDG_FULL.  Both measurements reach the EWMA
  // as serial time, frame 1's de-striped through the source's stripe law.
  ExecutorConfig exec_config;
  exec_config.source = MeasurementSource::Simulated;
  exec_config.policy = DeadlinePolicy::Run;
  exec_config.deadline_ms = 1e-3;
  exec_config.worker_threads = 2;
  const app::StentBoostConfig config = heavy_config(8);
  Executor executor(config, exec_config);
  const ExecutedFrame f0 = executor.step(0);
  const ExecutedFrame f1 = executor.step(1);

  const auto node = static_cast<usize>(app::kRdgFull);
  ASSERT_EQ(f0.plan[node], 1);
  ASSERT_GT(f1.plan[node], 1);
  ASSERT_GT(f0.task_ms[node], 0.0);
  const f64 alpha = executor.predictor().task_config(app::kRdgFull).ewma_alpha;
  const f64 serial1 = plat::serial_ms_from_striped(config.cost, f1.task_ms[node],
                                                   f1.plan[node]);
  EXPECT_NEAR(executor.predictor().predict_task(app::kRdgFull),
              (1.0 - alpha) * f0.task_ms[node] + alpha * serial1,
              1e-9 * serial1);
  // The simulated source measures the record's simulated latency.
  EXPECT_GT(f1.measured_ms, 0.0);
  EXPECT_NE(f1.measured_ms, f1.measured_host_ms);
}

TEST(Executor, ScenarioSequenceMatchesSerialApp) {
  // The executor repartitions and stripes, but the *content* decisions
  // (switch scenario per frame) must match a plain serial run bit for bit.
  constexpr i32 kFrames = 12;
  ExecutorConfig exec_config;
  exec_config.deadline_ms = 0.5;  // managed (and striping) from frame 0
  exec_config.worker_threads = 4;
  Executor executor(small_config(kFrames), exec_config);
  const std::vector<ExecutedFrame> managed = executor.run(kFrames);

  app::StentBoostApp serial(small_config(kFrames));
  const std::vector<graph::FrameRecord> reference = serial.run(kFrames);

  ASSERT_EQ(managed.size(), reference.size());
  for (usize t = 0; t < reference.size(); ++t) {
    EXPECT_EQ(managed[t].scenario, reference[t].scenario) << "frame " << t;
  }
}

TEST(Executor, RepartitionsWhenPredictionCrossesDeadline) {
  // Tight fixed deadline: frame 0 plans serially (filters unprimed, forecast
  // 0), frame 1's primed forecast exceeds the deadline and the plan widens —
  // a live repartition.
  ExecutorConfig exec_config;
  exec_config.deadline_ms = 0.3;
  exec_config.worker_threads = 4;
  exec_config.max_stripes_per_task = 4;
  Executor executor(heavy_config(8), exec_config);
  const std::vector<ExecutedFrame> frames = executor.run(6);

  EXPECT_EQ(frames[0].plan, app::serial_plan());
  EXPECT_FALSE(frames[0].repartitioned);
  EXPECT_NE(frames[1].plan, app::serial_plan());
  EXPECT_TRUE(frames[1].repartitioned);
  EXPECT_GT(frames[1].predicted_ms, 0.0);
  EXPECT_GE(executor.stats().repartitions, 1);
}

TEST(Executor, DropPolicyCountsMissesAndDrops) {
  ExecutorConfig exec_config;
  exec_config.deadline_ms = 1e-3;  // impossible: every frame misses
  exec_config.policy = DeadlinePolicy::Drop;
  exec_config.worker_threads = 2;
  Executor executor(small_config(8), exec_config);
  const std::vector<ExecutedFrame> frames = executor.run(4);

  for (const ExecutedFrame& f : frames) {
    EXPECT_TRUE(f.deadline_miss);
    EXPECT_TRUE(f.dropped);
  }
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.frames, 4);
  EXPECT_EQ(stats.deadline_misses, 4);
  EXPECT_EQ(stats.dropped_frames, 4);
  EXPECT_GT(stats.mean_measured_ms, 0.0);
}

TEST(Executor, DegradePolicyWalksQualityLadderDown) {
  ExecutorConfig exec_config;
  exec_config.deadline_ms = 1e-3;  // unreachable even at min quality
  exec_config.policy = DeadlinePolicy::Degrade;
  exec_config.worker_threads = 2;
  Executor executor(heavy_config(8), exec_config);
  const std::vector<ExecutedFrame> frames = executor.run(4);

  // Frame 0 plans on an unprimed (zero) forecast and stays at full quality;
  // once the filters are primed the ladder is walked all the way down.
  EXPECT_EQ(frames[0].quality_level, 0);
  const i32 max_level = narrow<i32>(rt::quality_ladder().size()) - 1;
  EXPECT_EQ(frames[1].quality_level, max_level);
  EXPECT_FALSE(frames[1].dropped);  // Degrade never drops
  EXPECT_GE(executor.stats().degraded_frames, 3);
  EXPECT_EQ(executor.stats().dropped_frames, 0);
}

TEST(Executor, ValidatesGraphAtStartup) {
  Executor executor(small_config(4), ExecutorConfig{});
  EXPECT_FALSE(executor.validation_report().has_errors());
}

TEST(Executor, FlightRecorderStaysEmptyWhenObsDisabled) {
  obs::set_enabled(false);
  obs::global().clear();
  ExecutorConfig exec_config;
  exec_config.deadline_ms = 5.0;
  exec_config.worker_threads = 2;
  Executor executor(small_config(8), exec_config);
  executor.run(8);
  EXPECT_EQ(obs::global().flight.size(), 0u);
  EXPECT_EQ(obs::global().flight.total_recorded(), 0u);
}

TEST(Executor, FlightRecorderCapturesFrameLifecycleWhenEnabled) {
  obs::global().clear();
  obs::set_enabled(true);
  ExecutorConfig exec_config;
  exec_config.deadline_ms = 5.0;
  exec_config.worker_threads = 2;
  Executor executor(small_config(8), exec_config);
  executor.run(8);
  obs::set_enabled(false);

  bool saw_frame_start = false;
  bool saw_frame_end = false;
  bool saw_node_timing = false;
  for (const obs::FlightEvent& e : obs::global().flight.snapshot()) {
    saw_frame_start |= e.type == obs::FrEventType::FrameStart;
    saw_frame_end |= e.type == obs::FrEventType::FrameEnd;
    saw_node_timing |= e.type == obs::FrEventType::NodeTiming;
  }
  EXPECT_TRUE(saw_frame_start);
  EXPECT_TRUE(saw_frame_end);
  EXPECT_TRUE(saw_node_timing);
  obs::global().clear();
}

TEST(Executor, ObsOnRunLongerThanTheRingsStaysBounded) {
  obs::global().clear();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "observability compiled out";
  ExecutorConfig exec_config;
  exec_config.worker_threads = 2;
  exec_config.ledger.enabled = true;
  constexpr i32 kMaxFrames = 3000;
  Executor executor(small_config(kMaxFrames), exec_config);
  const obs::FlightRecorder& flight = obs::global().flight;
  // Step until a ring has overwritten its oldest events, then some more.
  i32 t = 0;
  while (t < kMaxFrames && flight.total_recorded() == flight.size()) {
    (void)executor.step(t++);
  }
  for (const i32 end = std::min(t + 50, kMaxFrames); t < end; ++t) {
    (void)executor.step(t);
  }
  obs::set_enabled(false);

  EXPECT_LT(t, kMaxFrames);
  EXPECT_GT(flight.total_recorded(), flight.size());
  EXPECT_GE(flight.size(), flight.capacity_per_thread());
  EXPECT_LE(flight.size(),
            flight.thread_count() * flight.capacity_per_thread());
  obs::global().clear();
}

// End-to-end diagnostics: a load spike the predictor never learnt makes
// frames miss the deadline; the monitors alarm and a post-mortem bundle
// lands on disk and parses.
TEST(Executor, LoadSpikeProducesPostmortemBundle) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "tc_executor_diag_postmortems";
  fs::remove_all(dir);
  obs::global().clear();
  obs::set_enabled(true);

  ExecutorConfig exec_config;
  exec_config.worker_threads = 2;
  exec_config.warmup_frames = 6;
  exec_config.deadline_headroom = 1.6;  // roomy: organic misses stay rare
  exec_config.postmortem_dir = dir.string();
  exec_config.load_spike.start_frame = 20;
  exec_config.load_spike.frames = 3;
  exec_config.load_spike.busy_ms = 25.0;  // dwarfs the small graph's frame
  Executor executor(small_config(32), exec_config);
  executor.run(32);
  obs::set_enabled(false);

  const ExecutorStats stats = executor.stats();
  EXPECT_GT(stats.deadline_misses, 0);
  EXPECT_GT(stats.postmortems, 0);
  EXPECT_GT(stats.drift_alerts + stats.slo_breaches, 0);

  ASSERT_NE(executor.postmortem_writer(), nullptr);
  const std::string path = executor.postmortem_writer()->last_path();
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const common::JsonValue root = common::JsonValue::parse(ss.str());
  EXPECT_EQ(root.string_or("format", ""), "triplec-postmortem-v1");
  EXPECT_GT(root.get("events").size(), 0u);
  EXPECT_GT(root.get("predictors").get("nodes").size(), 0u);

  obs::global().clear();
  fs::remove_all(dir);
}

TEST(Executor, ManualPostmortemBypassesRateLimit) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "tc_executor_manual_pm";
  fs::remove_all(dir);

  ExecutorConfig exec_config;
  exec_config.deadline_ms = 5.0;
  exec_config.worker_threads = 2;
  exec_config.postmortem_dir = dir.string();
  Executor executor(heavy_config(12), exec_config);
  executor.run(10);

  // An explicit request bypasses the frame rate limit.
  const std::string path = executor.write_postmortem("operator_request");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const common::JsonValue root = common::JsonValue::parse(ss.str());
  EXPECT_EQ(root.string_or("reason", ""), "operator_request");

  fs::remove_all(dir);
}

TEST(Executor, DiagnosticsDisabledMeansNoMonitors) {
  Executor executor(small_config(4), ExecutorConfig{});
  EXPECT_EQ(executor.slo_monitor(), nullptr);
  EXPECT_EQ(executor.postmortem_writer(), nullptr);
  EXPECT_TRUE(executor.write_postmortem("manual").empty());
}

// --- prediction ledger integration ------------------------------------------

TEST(ExecutorLedger, DisabledByDefault) {
  Executor executor(small_config(4), ExecutorConfig{});
  EXPECT_EQ(executor.ledger(), nullptr);
}

TEST(ExecutorLedger, SettlesOneRowPerExecutedNode) {
  ExecutorConfig exec_config;
  exec_config.worker_threads = 2;
  exec_config.warmup_frames = 4;
  exec_config.ledger.enabled = true;
  exec_config.ledger.capacity = 0;  // keep every row
  Executor executor(heavy_config(16), exec_config);
  const std::vector<ExecutedFrame> frames = executor.run(12);

  obs::PredictionLedger* ledger = executor.ledger();
  ASSERT_NE(ledger, nullptr);
  const std::vector<obs::LedgerRow> rows = ledger->rows();
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(ledger->rows_settled(), rows.size());
  EXPECT_EQ(ledger->frames_lost(), 0u);

  // Every frame settles at least one row, in retire order.  Rows without
  // actuals are activity mispredictions (e.g. a dropped frame skipping the
  // tail of the pipeline) and must still carry their prediction.
  i32 last_frame = -1;
  usize measured_rows = 0;
  for (const obs::LedgerRow& r : rows) {
    EXPECT_GE(r.frame, last_frame);
    last_frame = r.frame;
    EXPECT_GE(r.node, 0);
    EXPECT_GE(r.ticket, 0);
    if (r.meas_mask != 0) {
      ++measured_rows;
      EXPECT_TRUE(r.has_meas(obs::LedgerResource::CpuMs));
      EXPECT_TRUE(r.has_meas(obs::LedgerResource::MemBytes));
    } else {
      EXPECT_TRUE(r.has_pred(obs::LedgerResource::CpuMs));
    }
  }
  EXPECT_EQ(last_frame, 11);
  EXPECT_GT(measured_rows, 0u);

  // Full-frame mode always runs RDG_FULL: its measured CPU sums to the
  // frame's node time, and its calibration stream filled up.
  const auto stats =
      ledger->node_calibration(app::kRdgFull, obs::LedgerResource::CpuMs);
  EXPECT_GT(stats.samples, 0u);
}

TEST(ExecutorLedger, WarmupRowsAreActualOnlyThenPredictionsAppear) {
  ExecutorConfig exec_config;
  exec_config.worker_threads = 2;
  exec_config.warmup_frames = 5;
  exec_config.ledger.enabled = true;
  exec_config.ledger.capacity = 0;
  Executor executor(heavy_config(16), exec_config);
  executor.run(10);

  bool saw_predicted = false;
  for (const obs::LedgerRow& r : executor.ledger()->rows()) {
    if (r.frame < 1) {
      // Frame 0 plans before any feedback: no filter is primed, so every
      // row is actual-only (pred_mask == 0).
      EXPECT_EQ(r.pred_mask, 0u) << "node " << r.node;
    }
    if (r.frame >= 5 && r.has_pred(obs::LedgerResource::CpuMs)) {
      saw_predicted = true;
      EXPECT_GT(r.pred[0], 0.0);
    }
  }
  EXPECT_TRUE(saw_predicted);
  // Managed frames carry the derived deadline and a finite slack.
  bool saw_slack = false;
  for (const obs::LedgerRow& r : executor.ledger()->rows()) {
    if (r.deadline_ms > 0.0) {
      saw_slack = true;
      // slack = deadline - measured latency, and latency is strictly > 0.
      EXPECT_LT(r.deadline_slack_ms, r.deadline_ms);
    }
  }
  EXPECT_TRUE(saw_slack);
}

TEST(ExecutorLedger, BusAttributionCoversCacheAndIoClasses) {
  obs::global().clear();
  obs::set_enabled(true);
  ExecutorConfig exec_config;
  exec_config.worker_threads = 2;
  exec_config.warmup_frames = 3;  // predictions (and counter samples) early
  exec_config.ledger.enabled = true;
  exec_config.ledger.capacity = 0;
  Executor executor(small_config(10), exec_config);
  executor.run(10);
  obs::set_enabled(false);

  // With obs on, every settled row with both CPU sides adds a sample to the
  // node's predicted/actual Chrome counter track.
  bool saw_counter = false;
  for (const obs::FlightEvent& e : obs::global().flight.snapshot()) {
    saw_counter |= e.type == obs::FrEventType::LedgerCpu;
  }
  EXPECT_TRUE(saw_counter);
  obs::global().clear();

  f64 cache_mb = 0.0;
  f64 io_mb = 0.0;
  for (const obs::LedgerRow& r : executor.ledger()->rows()) {
    if (r.meas_mask == 0) continue;  // prediction-only (dropped-frame tail)
    EXPECT_TRUE(r.has_meas(obs::LedgerResource::CacheBusMb));
    EXPECT_TRUE(r.has_meas(obs::LedgerResource::IoBusMb));
    cache_mb += r.meas[static_cast<usize>(obs::LedgerResource::CacheBusMb)];
    io_mb += r.meas[static_cast<usize>(obs::LedgerResource::IoBusMb)];
  }
  // The pipeline moves real bytes: the cache bus carries interior traffic
  // and the source/sink nodes put the device frames on the I/O bus.
  EXPECT_GT(cache_mb, 0.0);
  EXPECT_GT(io_mb, 0.0);
}

TEST(ExecutorLedger, PipelinedRunSettlesSameRowCountAsSerial) {
  auto run_rows = [](auto&& drive) {
    ExecutorConfig exec_config;
    exec_config.worker_threads = 4;
    exec_config.warmup_frames = 4;
    exec_config.ledger.enabled = true;
    exec_config.ledger.capacity = 0;
    Executor executor(small_config(12), exec_config);
    drive(executor);
    return executor.ledger()->rows();
  };
  const auto serial = run_rows([](Executor& e) { e.run(12); });
  const auto piped =
      run_rows([](Executor& e) { e.run_pipelined(12, /*frames_in_flight=*/2); });

  ASSERT_EQ(serial.size(), piped.size());
  // Same (frame, node, scenario) attribution on both drive paths; only the
  // measured host times differ (wall-clock).
  for (usize i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].frame, piped[i].frame);
    EXPECT_EQ(serial[i].node, piped[i].node);
    EXPECT_EQ(serial[i].scenario, piped[i].scenario);
  }
}

TEST(ExecutorLedger, PostmortemBundleEmbedsRecentLedgerRows) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "tc_executor_ledger_pm";
  fs::remove_all(dir);

  ExecutorConfig exec_config;
  exec_config.deadline_ms = 5.0;
  exec_config.worker_threads = 2;
  exec_config.ledger.enabled = true;
  exec_config.postmortem_dir = dir.string();
  Executor executor(small_config(8), exec_config);
  executor.run(8);

  const std::string path = executor.write_postmortem("ledger_check");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const common::JsonValue root = common::JsonValue::parse(ss.str());
  const common::JsonValue& ledger = root.get("ledger");
  ASSERT_TRUE(ledger.is_array());
  ASSERT_GT(ledger.size(), 0u);
  ASSERT_LE(ledger.size(), 32u);  // the bundle embeds the most recent rows
  EXPECT_GE(ledger.at(0).number_or("frame", -1), 0.0);
  EXPECT_EQ(ledger.at(ledger.size() - 1).number_or("frame", -1), 7.0);

  fs::remove_all(dir);
}

// Per-node drift on the ledger's CPU windows: a node forecast at 3x its
// measured time raises exactly one DriftAlert, carrying that node's id,
// while the same run with online EWMAs raises none.
TEST(ExecutorLedger, MisScaledNodeRaisesOneDriftAlert) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "tc_executor_node_drift";
  constexpr i32 kFrames = 48;
  // A small node: tripling it leaves the frame forecast within the rule.
  constexpr i32 kNode = app::kCplsSel;
  ExecutorConfig exec_config;
  exec_config.source = MeasurementSource::Simulated;  // deterministic times
  exec_config.ledger.enabled = true;
  exec_config.postmortem_dir = dir.string();

  model::GraphPredictor predictor(app::kNodeCount, app::kSwitchCount);
  model::PredictorConfig ewma;
  ewma.kind = model::PredictorKind::Ewma;
  for (i32 node = 0; node < app::kNodeCount; ++node) {
    predictor.configure_task(node, ewma);
  }
  struct Run {
    i32 alerts = 0;
    std::vector<obs::FlightEvent> drift_events;
    f64 node_mean_ms = 0.0;
  };
  auto run = [&](const model::GraphPredictor& p) {
    fs::remove_all(dir);
    obs::global().clear();
    obs::set_enabled(true);
    Executor executor(heavy_config(kFrames), exec_config, p);
    const std::vector<ExecutedFrame> frames = executor.run(kFrames);
    obs::set_enabled(false);
    Run r;
    r.alerts = executor.stats().drift_alerts;
    for (const obs::FlightEvent& e : obs::global().flight.snapshot()) {
      if (e.type == obs::FrEventType::DriftAlert) r.drift_events.push_back(e);
    }
    i32 executed = 0;
    for (const ExecutedFrame& f : frames) {
      const f64 ms = f.task_ms[static_cast<usize>(kNode)];
      if (ms <= 0.0) continue;
      r.node_mean_ms += ms;
      ++executed;
    }
    r.node_mean_ms /= std::max(executed, 1);
    obs::global().clear();
    fs::remove_all(dir);
    return r;
  };

  const Run healthy = run(predictor);
  EXPECT_EQ(healthy.alerts, 0);
  EXPECT_TRUE(healthy.drift_events.empty());
  ASSERT_GT(healthy.node_mean_ms, 0.0);

  model::PredictorConfig constant;
  constant.kind = model::PredictorKind::Constant;
  predictor.configure_task(kNode, constant);
  predictor.task_predictor(kNode).train(
      std::vector<model::TrainingSample>{{3.0 * healthy.node_mean_ms, 0.0}});
  const Run drifted = run(predictor);
  EXPECT_EQ(drifted.alerts, 1);
  ASSERT_EQ(drifted.drift_events.size(), 1u);
  EXPECT_EQ(drifted.drift_events[0].node, kNode);
  EXPECT_GT(drifted.drift_events[0].a, obs::DriftRule::kThresholdPct);
  EXPECT_EQ(drifted.drift_events[0].b, obs::DriftRule::kThresholdPct);
}

}  // namespace
}  // namespace tc::exec
