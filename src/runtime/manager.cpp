#include "runtime/manager.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/stats.hpp"
#include "obs/obs.hpp"
#include "runtime/audit_gate.hpp"

namespace tc::rt {

RuntimeManager::RuntimeManager(app::StentBoostApp& app,
                               model::GraphPredictor& predictor,
                               ManagerConfig config)
    : app_(app), predictor_(predictor), config_(config) {
  if (config_.validate_at_startup) {
    // Static validation before the first frame: a malformed graph, predictor
    // configuration or platform spec fails here (under Strict) instead of
    // corrupting a run.
    analysis::AnalysisInput input;
    input.graph = &app_.graph();
    input.predictor = &predictor_;
    input.platform = &app_.config().platform;
    validation_report_ = analysis::Analyzer{}.run(input);
    analysis::enforce(validation_report_, config_.validation_policy);
  }
  if (config_.audit_at_startup) {
    // Static schedulability proof over all scenarios × the plan search
    // space: a strict deployment refuses a graph whose reachable scenarios
    // cannot meet the deadline or whose bus loads exceed the Fig.-4 budgets.
    analysis::audit::AuditResult audit =
        audit_app(app_, predictor_, {}, config_.audit_options);
    audit_report_ = std::move(audit.report);
    analysis::enforce(audit_report_, config_.audit_policy);
  }
  if (config_.latency_budget_ms > 0.0) {
    budget_ms_ = config_.latency_budget_ms;
    budget_set_ = true;
  }
}

std::vector<NodeForecast> RuntimeManager::forecast(
    bool assume_reg_success) const {
  std::vector<NodeForecast> fc(app::kNodeCount);

  // The RDG and ROI switches are known before the frame starts (they are
  // inter-frame state); only the registration outcome is uncertain.  Budget
  // planning assumes it succeeds (over-reserving is safe); the reported
  // prediction takes the scenario state table's most likely next scenario.
  const bool rdg = app_.rdg_active();
  const bool roi = app_.roi_valid();
  graph::ScenarioId likely = predictor_.predict_scenario();
  const bool reg_likely =
      assume_reg_success || ((likely >> app::kSwReg) & 1u) != 0;

  const f64 full_px = static_cast<f64>(app_.config().sequence.width) *
                      static_cast<f64>(app_.config().sequence.height) *
                      app_.config().cost.resolution_scale;
  const f64 roi_px =
      roi ? static_cast<f64>(app_.current_roi().area()) *
                app_.config().cost.resolution_scale
          : full_px;

  auto set = [&](i32 node, bool active, f64 size) {
    fc[static_cast<usize>(node)].active = active;
    fc[static_cast<usize>(node)].data_parallel = app::node_data_parallel(node);
    if (active) {
      fc[static_cast<usize>(node)].serial_ms =
          predictor_.predict_task(node, size);
    }
  };

  set(app::kRdgFull, rdg && !roi, full_px);
  set(app::kRdgRoi, rdg && roi, roi_px);
  set(app::kMkxFull, !roi, full_px);
  set(app::kMkxRoi, roi, roi_px);
  set(app::kCplsSel, true, 0.0);
  set(app::kReg, true, 0.0);
  set(app::kRoiEst, true, 0.0);
  set(app::kGwExt, rdg, 0.0);
  set(app::kEnh, reg_likely, roi_px);
  set(app::kZoom, reg_likely, roi_px);
  return fc;
}

ManagedFrame RuntimeManager::step(i32 t) {
  ManagedFrame result;
  const bool managed = budget_set_;

  if (!managed) {
    // Initialization phase: run serially and collect the average case.
    app_.set_stripe_plan(app::serial_plan());
    result.plan = app::serial_plan();
    std::vector<NodeForecast> fc = forecast();
    result.predicted_latency_ms =
        estimate_latency(app_.config().cost, fc, result.plan);
  } else {
    std::vector<NodeForecast> fc = forecast(/*assume_reg_success=*/true);
    PlanChoice choice =
        choose_plan(app_.config().cost, fc, budget_ms_,
                    config_.max_stripes_per_task,
                    app_.config().platform.cpu_count);
    if (!choice.fits_budget && config_.enable_qos) {
      QosDecision qos = choose_quality_and_plan(
          app_.config().cost, fc, budget_ms_, config_.max_stripes_per_task,
          app_.config().platform.cpu_count);
      app_.set_quality(qos.level.extra_mkx_decimation,
                       qos.level.skip_guidewire, qos.level.zoom_divisor);
      applied_quality_ = qos.level;
      result.quality_level = qos.level.level;
      choice = qos.plan;
    } else if (config_.enable_qos) {
      // Budget fits at full quality: make sure any earlier degradation is
      // lifted again.
      app_.set_quality(1, false, 1);
      applied_quality_ = QualityLevel{};
    }
    app_.set_stripe_plan(choice.plan);
    result.plan = choice.plan;
    // Report the scenario-aware prediction under the chosen plan (and the
    // applied QoS level, if any).
    std::vector<NodeForecast> likely_fc =
        forecast(/*assume_reg_success=*/false);
    if (applied_quality_.level > 0) {
      likely_fc = degrade_forecast(likely_fc, applied_quality_);
    }
    result.predicted_latency_ms =
        estimate_latency(app_.config().cost, likely_fc, choice.plan);
    result.fits_budget = choice.fits_budget;
  }
  const bool repartitioned = managed && result.plan != prev_plan_;
  const bool qos_changed = result.quality_level != prev_quality_;
  if (obs::enabled()) {
    record_frame_start(t, result, managed, repartitioned, qos_changed);
  }

  result.record = app_.process_frame(t);
  result.measured_latency_ms = result.record.latency_ms;
  if (managed) {
    // Output delay line: early frames wait for the budget instant.
    result.output_latency_ms = std::max(result.measured_latency_ms, budget_ms_);
  } else {
    result.output_latency_ms = result.measured_latency_ms;
    warmup_latencies_.push_back(result.measured_latency_ms);
    if (narrow<i32>(warmup_latencies_.size()) >= config_.warmup_frames) {
      budget_ms_ = mean(warmup_latencies_) * config_.budget_headroom;
      budget_set_ = true;
    }
  }

  if (config_.online_observation) {
    // The predictors model *serial, full-quality* execution: normalize the
    // measurements back from the applied stripe plan and QoS level so the
    // models stay unbiased under repartitioning.
    graph::FrameRecord normalized = result.record;
    for (graph::TaskExecution& exec : normalized.tasks) {
      if (!exec.executed) continue;
      if (app::node_data_parallel(exec.node)) {
        i32 stripes = result.plan[static_cast<usize>(exec.node)];
        exec.simulated_ms = serial_ms_from_striped(app_.config().cost,
                                                   exec.simulated_ms, stripes);
      }
      if (applied_quality_.level > 0) {
        if (exec.node == app::kMkxFull || exec.node == app::kMkxRoi) {
          exec.simulated_ms /= applied_quality_.mkx_cost_factor();
        } else if (exec.node == app::kZoom) {
          exec.simulated_ms /= applied_quality_.zoom_cost_factor();
        }
      }
    }
    predictor_.observe(normalized);
  }

  if (obs::enabled()) {
    record_frame_observability(result, managed, repartitioned, qos_changed);
  }
  prev_plan_ = result.plan;
  prev_quality_ = result.quality_level;
  prev_scenario_ = result.record.scenario;
  scenario_seen_ = true;
  return result;
}

void RuntimeManager::record_frame_start(i32 t, const ManagedFrame& f,
                                        bool managed, bool repartitioned,
                                        bool qos_changed) {
  obs::FlightRecorder& flight = obs::global().flight;
  // The simulated timeline rides in the payload: b = the frame's start on
  // the simulated clock.
  flight.record(obs::FrEventType::FrameStart, t, -1, f.predicted_latency_ms,
                sim_clock_ms_);
  const f64 stripes = std::accumulate(f.plan.begin(), f.plan.end(), 0.0);
  if (managed) {
    flight.record(obs::FrEventType::PlanChoice, t, -1, stripes,
                  f.predicted_latency_ms);
  }
  if (qos_changed) {
    flight.record(obs::FrEventType::QosTransition, t, -1,
                  static_cast<f64>(f.quality_level),
                  static_cast<f64>(prev_quality_));
  }
  if (repartitioned) {
    flight.record(obs::FrEventType::Repartition, t, -1, stripes,
                  std::accumulate(prev_plan_.begin(), prev_plan_.end(), 0.0));
  }
}

void RuntimeManager::record_frame_observability(const ManagedFrame& f,
                                                bool managed,
                                                bool repartitioned,
                                                bool qos_changed) {
  obs::ObsContext& ctx = obs::global();
  obs::MetricsRegistry& m = ctx.metrics;
  const i32 t = f.record.frame;

  // --- flight events: the frame's end, then its simulated tasks -----------
  obs::FlightRecorder& flight = ctx.flight;
  if (scenario_seen_ && f.record.scenario != prev_scenario_) {
    flight.record(obs::FrEventType::ScenarioSwitch, t, -1,
                  static_cast<f64>(f.record.scenario),
                  static_cast<f64>(prev_scenario_));
  }
  const f64 budget_ms = managed ? budget_ms_ : 0.0;
  flight.record(obs::FrEventType::FrameEnd, t, -1, f.measured_latency_ms,
                budget_ms);
  if (managed && f.measured_latency_ms > budget_ms_) {
    flight.record(obs::FrEventType::DeadlineMiss, t, -1,
                  f.measured_latency_ms, budget_ms_);
  }
  // Executed tasks run back to back from the frame's simulated start; a
  // data-parallel task striped s-ways occupies s simulated CPU lanes.
  i32 total_stripes = 0;
  for (const graph::TaskExecution& exec : f.record.tasks) {
    if (!exec.executed) continue;
    const i32 stripes = app::node_data_parallel(exec.node)
                            ? f.plan[static_cast<usize>(exec.node)]
                            : 1;
    total_stripes += stripes;
    flight.record(obs::FrEventType::SimTask, t, exec.node, exec.simulated_ms,
                  static_cast<f64>(stripes));
  }

  // --- metrics ------------------------------------------------------------
  m.counter("tripleC_frames_total", "Frames processed by the runtime manager")
      .add();
  if (budget_set_) {
    m.gauge("tripleC_latency_budget_ms", "Active output-latency budget")
        .set(budget_ms_);
  }
  const bool budget_miss = managed && f.measured_latency_ms > budget_ms_;
  // Register unconditionally so the family exists (value 0) from frame one.
  obs::Counter& misses = m.counter(
      "tripleC_budget_miss_total",
      "Managed frames whose measured latency exceeded the budget");
  if (budget_miss) misses.add();
  obs::Counter& reparts = m.counter(
      "tripleC_repartitions_total",
      "Managed frames whose stripe plan differs from the previous frame");
  if (repartitioned) reparts.add();
  m.gauge("tripleC_qos_level", "QoS quality level applied this frame")
      .set(static_cast<f64>(f.quality_level));
  obs::Counter& qos_changes =
      m.counter("tripleC_qos_level_changes_total",
                "Frames where the applied QoS level changed");
  if (qos_changed) qos_changes.add();

  const std::vector<f64> latency_bounds = obs::latency_buckets_ms();
  m.histogram("tripleC_frame_predicted_ms",
              "Triple-C predicted frame latency", latency_bounds)
      .record(f.predicted_latency_ms);
  m.histogram("tripleC_frame_measured_ms", "Measured (simulated) frame latency",
              latency_bounds)
      .record(f.measured_latency_ms);
  m.histogram("tripleC_frame_output_ms",
              "Output latency after the delay line", latency_bounds)
      .record(f.output_latency_ms);
  // Same skip rule and formula as model::evaluate_accuracy so the metric is
  // directly comparable with AccuracyReport::mape_pct.
  f64 error_pct = 0.0;
  obs::Histogram& error_hist =
      m.histogram("tripleC_frame_prediction_error_pct",
                  "Per-frame |predicted - measured| / measured in percent",
                  obs::error_pct_buckets());
  if (const std::optional<f64> err =
          relative_error_pct(f.predicted_latency_ms, f.measured_latency_ms)) {
    error_pct = std::fabs(*err);
    error_hist.record(error_pct);
  }

  m.histogram("tripleC_frame_stripes",
              "Total execution lanes (stripes) of the frame's plan",
              obs::small_count_buckets())
      .record(static_cast<f64>(total_stripes));

  ctx.frames.add(obs::FrameSample{f.record.frame, f.record.scenario,
                                  f.quality_level, total_stripes,
                                  f.predicted_latency_ms, f.measured_latency_ms,
                                  f.output_latency_ms, budget_ms_,
                                  f.fits_budget, error_pct});

  sim_clock_ms_ += f.output_latency_ms;
}

std::vector<ManagedFrame> RuntimeManager::run(i32 n) {
  std::vector<ManagedFrame> frames;
  frames.reserve(static_cast<usize>(n));
  for (i32 t = 0; t < n; ++t) frames.push_back(step(t));
  return frames;
}

}  // namespace tc::rt
