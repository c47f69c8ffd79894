#include "exec/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/stats.hpp"
#include "exec/frame_pipeline.hpp"
#include "obs/obs.hpp"
#include "runtime/audit_gate.hpp"
#include "tripleC/bandwidth_model.hpp"

namespace tc::exec {

plat::CostParams host_cost_params() {
  plat::CostParams p;
  // Stripe overheads of the host thread pool: a parallel_ranges dispatch and
  // its barrier cost tens of microseconds, far below the simulated
  // platform's task-control overhead.  Slightly higher imbalance than the
  // model default — the host scheduler is noisier than the simulated one.
  p.dispatch_ms = 0.02;
  p.stripe_sync_ms = 0.03;
  p.default_imbalance = 1.10;
  // The host measures real time; no synthetic interference on top.
  p.interference_sigma = 0.0;
  return p;
}

namespace {

/// Smoothing of the auxiliary memory/bus filters behind the ledger.
constexpr f64 kAuxEwmaAlpha = 0.3;
/// Degrade policy: lift one quality level after this many consecutive
/// frames whose forecast would fit at the better level.
constexpr i32 kQosRecoverAfter = 4;
/// Ledger rows embedded in each post-mortem bundle (most recent first).
constexpr usize kPostmortemLedgerRows = 32;
/// Simulated frames that train the startup audit's throwaway predictor
/// when the loop's own predictor is untrained.
constexpr i32 kAuditTrainingFrames = 48;
/// Name of the frame-latency drift window (metrics label, bundle key).
constexpr const char* kFrameDriftStream = "frame_latency";
/// Executor-only SLO on top of obs::deadline_slos: p99 - p50 jitter of the
/// frame latency at most this fraction of the deadline.
constexpr f64 kSloJitterFactor = 0.75;

/// The loop's default predictor: one EWMA per node, learnt online.
model::GraphPredictor online_ewma_predictor() {
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  model::PredictorConfig c;
  c.kind = model::PredictorKind::Ewma;
  for (i32 node = 0; node < app::kNodeCount; ++node) gp.configure_task(node, c);
  return gp;
}

/// Forecast of one frame from `predictor`: `active` nodes at their current
/// prediction, ROI-granularity nodes priced at `roi_px`.
std::vector<rt::NodeForecast> forecast_nodes(
    const model::GraphPredictor& predictor,
    const std::array<bool, app::kNodeCount>& active, f64 full_px,
    f64 roi_px) {
  std::vector<rt::NodeForecast> fc(app::kNodeCount);
  for (i32 node = 0; node < app::kNodeCount; ++node) {
    rt::NodeForecast& f = fc[static_cast<usize>(node)];
    f.active = active[static_cast<usize>(node)];
    f.data_parallel = app::node_data_parallel(node);
    if (!f.active) continue;
    const bool roi_sized = node == app::kRdgRoi || node == app::kMkxRoi ||
                           node == app::kEnh || node == app::kZoom;
    const bool full_sized = node == app::kRdgFull || node == app::kMkxFull;
    f.serial_ms = predictor.predict_task(
        node, roi_sized ? roi_px : (full_sized ? full_px : 0.0));
  }
  return fc;
}

}  // namespace

std::vector<rt::NodeForecast> PredictorSnapshot::forecast() const {
  return forecast_nodes(predictor,
                        app::scenario_node_activity(predictor.predict_scenario()),
                        0.0, 0.0);
}

Executor::Executor(app::StentBoostConfig app_config, ExecutorConfig config)
    : Executor(std::move(app_config), std::move(config),
               online_ewma_predictor()) {}

Executor::Executor(app::StentBoostConfig app_config, ExecutorConfig config,
                   model::GraphPredictor predictor)
    : config_(std::move(config)),
      owned_pool_(config_.shared_pool != nullptr
                      ? nullptr
                      : std::make_unique<plat::ThreadPool>(
                            config_.worker_threads <= 0
                                ? 0
                                : static_cast<usize>(config_.worker_threads))),
      pool_(config_.shared_pool != nullptr ? config_.shared_pool
                                           : owned_pool_.get()),
      app_(std::move(app_config), pool_),
      predictor_(std::move(predictor)) {
  for (auto& per_node : node_aux_ewma_) {
    per_node.fill(model::EwmaFilter(kAuxEwmaAlpha));
  }
  // Graph topology for the ledger's I/O-bus attribution: a node with no
  // incoming edge ingests from the camera, one with no outgoing edge feeds
  // the display (Fig. 4 I/O bus).
  node_is_source_.fill(true);
  node_is_sink_.fill(true);
  for (const graph::Edge& e : app_.graph().edges()) {
    node_is_sink_[static_cast<usize>(e.from)] = false;
    node_is_source_[static_cast<usize>(e.to)] = false;
  }
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
    // Schedulability proof before the first frame over all scenarios × the
    // runtime plan search space.  An untrained predictor prices every task
    // at 0 ms (a vacuous proof), so one is trained on a throwaway simulated
    // copy of the application (the executor's own app keeps its pristine
    // inter-frame state), which also yields Table-1 memory rows.
    analysis::audit::AuditResult audit;
    if (predictor_.trained()) {
      audit = rt::audit_app(app_, predictor_, {}, config_.audit_options);
    } else {
      app::StentBoostApp train_app(app_.config());
      model::GraphPredictor trained(app::kNodeCount, app::kSwitchCount);
      std::vector<std::vector<graph::FrameRecord>> seqs = {
          train_app.run(kAuditTrainingFrames)};
      trained.train(seqs);
      const std::vector<model::MemoryRow> rows = rt::capture_memory_rows(
          seqs.front(), app_.config().cost.resolution_scale);
      audit = rt::audit_app(train_app, trained, rows, config_.audit_options);
    }
    audit_report_ = std::move(audit.report);
    analysis::enforce(audit_report_, config_.audit_policy);
  }
  if (config_.deadline_ms > 0.0) {
    deadline_ms_ = config_.deadline_ms;
    deadline_set_ = true;
  }
  if (!config_.postmortem_dir.empty()) {
    diag_ = std::make_unique<Diagnostics>(config_.postmortem_dir);
  }
  if (config_.ledger.enabled) {
    obs::LedgerConfig lc = config_.ledger;
    if (!lc.node_name) {
      lc.node_name = [](i32 node) {
        return std::string(app::node_name(node));
      };
    }
    ledger_ = std::make_unique<obs::PredictionLedger>(
        std::move(lc), obs::enabled() ? &obs::global().metrics : nullptr);
  }
}

const plat::CostParams& Executor::cost() const {
  return simulated() ? app_.config().cost : config_.host_cost;
}

i32 Executor::planner_cpus() const {
  return simulated() ? app_.config().platform.cpu_count : effective_threads();
}

i32 Executor::effective_threads() const {
  const i32 pool = narrow<i32>(pool_->thread_count());
  return pool_share_ > 0 ? std::min(pool_share_, pool) : pool;
}

std::vector<rt::NodeForecast> Executor::forecast(bool reserve_enh_zoom) const {
  // The RDG and ROI switches are inter-frame state known before the frame
  // starts; only the registration outcome is uncertain.
  const bool roi = app_.roi_valid();
  const bool reg =
      reserve_enh_zoom ||
      ((predictor_.predict_scenario() >> app::kSwReg) & 1u) != 0;
  const graph::ScenarioId scenario =
      (app_.rdg_active() ? 1u << app::kSwRdg : 0u) |
      (roi ? 1u << app::kSwRoi : 0u) | (reg ? 1u << app::kSwReg : 0u);

  const app::StentBoostConfig& c = app_.config();
  const f64 full_px = static_cast<f64>(c.sequence.width) *
                      static_cast<f64>(c.sequence.height) *
                      c.cost.resolution_scale;
  const f64 roi_px =
      roi ? static_cast<f64>(app_.current_roi().area()) *
                c.cost.resolution_scale
          : full_px;
  return forecast_nodes(predictor_, app::scenario_node_activity(scenario),
                        full_px, roi_px);
}

void Executor::apply_quality(i32 frame, i32 ladder_index) {
  const auto ladder = rt::quality_ladder();
  const i32 max_index = narrow<i32>(ladder.size()) - 1;
  const i32 previous = quality_index_;
  quality_index_ = std::clamp(ladder_index, 0, max_index);
  const rt::QualityLevel& level = ladder[static_cast<usize>(quality_index_)];
  app_.set_quality(level.extra_mkx_decimation, level.skip_guidewire,
                   level.zoom_divisor);
  if (quality_index_ != previous && obs::enabled()) {
    obs::global().flight.record(obs::FrEventType::QosTransition, frame, -1,
                                static_cast<f64>(quality_index_),
                                static_cast<f64>(previous));
  }
}

void Executor::plan_frame(i32 t, i32 frames_in_flight,
                          ExecutedFrame& result) {
  result.frame = t;
  result.managed = deadline_set_;
  result.deadline_ms = deadline_ms_;

  // Planning forecast: ENH and ZOOM reserved.  Warm-up frames run serially.
  const std::vector<rt::NodeForecast> fc = forecast(/*reserve_enh_zoom=*/true);
  rt::PlanChoice choice;
  choice.plan = app::serial_plan();
  if (result.managed) {
    if (config_.policy == DeadlinePolicy::Degrade) {
      const auto ladder = rt::quality_ladder();
      if (quality_index_ > 0) {
        // Recovery hysteresis: lift one level only after kQosRecoverAfter
        // consecutive frames whose forecast fits at the better level.
        const rt::PlanChoice better = rt::choose_plan(
            cost(),
            rt::degrade_forecast(
                fc, ladder[static_cast<usize>(quality_index_ - 1)]),
            deadline_ms_, config_.max_stripes_per_task, planner_cpus());
        recover_streak_ = better.fits_budget ? recover_streak_ + 1 : 0;
        if (recover_streak_ >= kQosRecoverAfter) {
          apply_quality(t, quality_index_ - 1);
          recover_streak_ = 0;
        }
      }
      const rt::QualityPlan walk = rt::walk_quality_ladder(
          cost(), fc, deadline_ms_, config_.max_stripes_per_task,
          planner_cpus(), quality_index_);
      if (walk.level != quality_index_) {
        apply_quality(t, walk.level);
        recover_streak_ = 0;
      }
      choice = walk.plan;
    } else {
      choice = rt::choose_plan(cost(), fc, deadline_ms_,
                               config_.max_stripes_per_task, planner_cpus());
    }
  }
  result.plan = choice.plan;
  result.quality_level = quality_index_;
  result.fits_deadline = result.managed && choice.fits_budget;

  // Reported prediction: the scenario-likely forecast at the applied
  // quality, under the chosen plan.
  const rt::QualityLevel& level =
      rt::quality_ladder()[static_cast<usize>(quality_index_)];
  std::vector<rt::NodeForecast> likely = forecast(/*reserve_enh_zoom=*/false);
  if (quality_index_ > 0) likely = rt::degrade_forecast(likely, level);
  result.predicted_ms = rt::estimate_latency(cost(), likely, result.plan);

  app_.set_stripe_plan(result.plan);
  // Host resource budget: the chosen plan's widest fan-out, capped by this
  // frame's fair share of the pool (pipelining divides the pool among the
  // frames in flight).
  app_.set_instance_budget(
      rt::budget_for_plan(choice, effective_threads(), frames_in_flight));
  if (obs::enabled()) record_frame_start(result, choice.estimated_ms);
  if (ledger_ != nullptr) {
    // Warm-up frames settle actual-only rows: the ledger scores the
    // forecasts the plans were built on.
    std::vector<rt::NodeForecast> planned;
    if (result.managed) {
      planned = quality_index_ > 0 ? rt::degrade_forecast(fc, level) : fc;
    }
    ledger_predict(t, planned, result);
  }
}

void Executor::record_frame_start(const ExecutedFrame& f, f64 planned_ms) {
  obs::FlightRecorder& flight = obs::global().flight;
  // The simulated timeline rides in the payload: b = the frame's start on
  // the simulated clock.
  flight.record(obs::FrEventType::FrameStart, f.frame, -1, f.predicted_ms,
                simulated() ? sim_clock_ms_ : 0.0);
  if (f.managed) {
    flight.record(obs::FrEventType::PlanChoice, f.frame, -1,
                  std::accumulate(f.plan.begin(), f.plan.end(), 0.0),
                  planned_ms);
  }
}

void Executor::ledger_predict(i32 t, std::span<const rt::NodeForecast> fc,
                              const ExecutedFrame& result) {
  std::vector<obs::LedgerSample> preds;
  for (usize node = 0; node < fc.size(); ++node) {
    const rt::NodeForecast& f = fc[node];
    if (!f.active || f.serial_ms <= 0.0) continue;
    obs::LedgerSample s;
    s.node = narrow<i32>(node);
    // CPU: the serial forecast striped through the chosen plan — the time
    // this node is actually expected to take.
    f64 cpu_ms = f.serial_ms;
    if (f.data_parallel) {
      cpu_ms = plat::striped_ms_from_serial(cost(), cpu_ms, result.plan[node]);
    }
    s.mask = obs::ledger_bit(obs::LedgerResource::CpuMs);
    s.values[static_cast<usize>(obs::LedgerResource::CpuMs)] = cpu_ms;
    // Memory and bus traffic: the auxiliary filters, once primed from
    // measured frames (predictions appear from the node's second frame on).
    for (i32 r = 1; r < obs::kLedgerResourceCount; ++r) {
      const model::EwmaFilter& aux =
          node_aux_ewma_[node][static_cast<usize>(r - 1)];
      if (!aux.primed()) continue;
      s.mask |= obs::ledger_bit(static_cast<obs::LedgerResource>(r));
      s.values[static_cast<usize>(r)] = aux.value();
    }
    preds.push_back(s);
  }
  ledger_->predict_frame(t, next_ticket_++,
                         deadline_set_ ? deadline_ms_ : 0.0, result.plan,
                         preds);
}

void Executor::ledger_settle(const ExecutedFrame& result,
                             const graph::FrameRecord& record) {
  std::vector<obs::LedgerSample> actuals;
  const u64 l2_slice = app_.config().platform.l2_bytes;
  for (const graph::TaskExecution& exec : record.tasks) {
    if (!exec.executed) continue;
    const auto node = static_cast<usize>(exec.node);
    const model::NodeBusTraffic bus = model::attribute_node_buses(
        exec.work, node_is_source_[node], node_is_sink_[node], l2_slice);
    obs::LedgerSample s;
    s.node = exec.node;
    s.mask = obs::kLedgerAllResources;
    s.values[static_cast<usize>(obs::LedgerResource::CpuMs)] =
        result.task_ms[node];
    s.values[static_cast<usize>(obs::LedgerResource::MemBytes)] =
        static_cast<f64>(exec.work.footprint_bytes());
    s.values[static_cast<usize>(obs::LedgerResource::CacheBusMb)] =
        bus.cache_mb;
    s.values[static_cast<usize>(obs::LedgerResource::MemoryBusMb)] =
        bus.memory_mb;
    s.values[static_cast<usize>(obs::LedgerResource::IoBusMb)] = bus.io_mb;
    actuals.push_back(s);
    for (i32 r = 1; r < obs::kLedgerResourceCount; ++r) {
      node_aux_ewma_[node][static_cast<usize>(r - 1)].update(
          s.values[static_cast<usize>(r)]);
    }
  }
  const std::vector<obs::LedgerRow> rows = ledger_->settle_frame(
      result.frame, record.scenario, result.measured_ms, actuals);
  // Per-node drift: the drift rule over each scored node's CPU calibration
  // window.  A single node drifting is an attribution signal for the
  // post-mortem.
  if (diag_ == nullptr) return;
  for (const obs::LedgerRow& row : rows) {
    if (!row.error_pct(obs::LedgerResource::CpuMs).has_value()) continue;
    (void)check_drift(
        diag_->node_drift[static_cast<usize>(row.node)],
        ledger_->node_calibration(row.node, obs::LedgerResource::CpuMs),
        row.frame, row.node, "node:" + std::string(app::node_name(row.node)));
  }
}

ExecutedFrame Executor::step(i32 t) {
  ExecutedFrame result;
  plan_frame(t, /*frames_in_flight=*/1, result);
  graph::FrameRecord record = app_.process_frame(t);
  // Fault injection: a co-scheduled interferer steals real wall-clock time
  // from the frame.  The tasks' own measurements are untouched (the
  // predictor did not cause the spike and must not be trained on it), but
  // the frame's latency — what the deadline is judged against — inflates.
  const LoadSpike& spike = config_.load_spike;
  f64 spike_ms = 0.0;
  if (spike.start_frame >= 0 && spike.busy_ms > 0.0 &&
      t >= spike.start_frame && t < spike.start_frame + spike.frames) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<f64, std::milli>(spike.busy_ms);
    while (std::chrono::steady_clock::now() < until) {
    }
    spike_ms = spike.busy_ms;
  }
  measure(record, spike_ms, result);
  settle_frame(result, record);
  return result;
}

void Executor::measure(const graph::FrameRecord& record, f64 spike_ms,
                       ExecutedFrame& result) const {
  // The host latency is the graph execution itself — the sum of the
  // measured task walls.  Rendering the synthetic input (process_frame's
  // other cost, in row bands on the frame's pool share) stands in for the
  // camera and is not pipeline work, so it must not contaminate the
  // deadline or the predictor feedback.
  for (const graph::TaskExecution& exec : record.tasks) {
    if (!exec.executed) continue;
    result.measured_host_ms += exec.host_ms;
    result.task_ms[static_cast<usize>(exec.node)] =
        simulated() ? exec.simulated_ms : exec.host_ms;
  }
  result.measured_host_ms += spike_ms;
  result.measured_ms =
      simulated() ? record.latency_ms : result.measured_host_ms;
}

void Executor::settle_frame(ExecutedFrame& result,
                            const graph::FrameRecord& record) {
  result.scenario = record.scenario;

  // --- QoS: deadline accounting and the output delay line ------------------
  if (result.managed && result.measured_ms > result.deadline_ms) {
    result.deadline_miss = true;
    if (config_.policy == DeadlinePolicy::Drop) result.dropped = true;
  }
  result.output_ms = simulated() && result.managed
                         ? std::max(result.measured_ms, result.deadline_ms)
                         : result.measured_ms;

  if (ledger_ != nullptr) ledger_settle(result, record);

  // --- feedback: serial, full-quality task times ---------------------------
  const rt::QualityLevel& level =
      rt::quality_ladder()[static_cast<usize>(result.quality_level)];
  std::array<f64, app::kNodeCount> serial_ms{};
  for (const graph::TaskExecution& exec : record.tasks) {
    if (!exec.executed) continue;
    const auto node = static_cast<usize>(exec.node);
    f64 ms = result.task_ms[node];
    if (app::node_data_parallel(exec.node)) {
      ms = plat::serial_ms_from_striped(cost(), ms, result.plan[node]);
    }
    if (exec.node == app::kMkxFull || exec.node == app::kMkxRoi) {
      ms /= level.mkx_cost_factor();
    } else if (exec.node == app::kZoom) {
      ms /= level.zoom_cost_factor();
    }
    serial_ms[node] = ms;
  }
  predictor_.observe(record, serial_ms);

  if (!deadline_set_) {
    warmup_measured_ms_.push_back(result.measured_ms);
    if (narrow<i32>(warmup_measured_ms_.size()) >= config_.warmup_frames) {
      deadline_ms_ = mean(warmup_measured_ms_) * config_.deadline_headroom;
      deadline_set_ = true;
    }
  }

  result.repartitioned = result.managed && result.plan != prev_plan_;

  ++stats_.frames;
  measured_sum_ms_ += result.measured_ms;
  stats_.mean_measured_ms = measured_sum_ms_ / stats_.frames;
  if (result.managed) ++stats_.managed_frames;
  if (result.deadline_miss) ++stats_.deadline_misses;
  if (result.dropped) ++stats_.dropped_frames;
  if (result.quality_level > 0) ++stats_.degraded_frames;
  if (result.repartitioned) ++stats_.repartitions;

  if (obs::enabled()) record_frame_observability(result, record);
  prev_plan_ = result.plan;
  last_frame_ = result;
  if (diag_ != nullptr) run_diagnostics(result);
}

void Executor::record_frame_observability(const ExecutedFrame& f,
                                          const graph::FrameRecord& record) {
  obs::ObsContext& ctx = obs::global();
  obs::FlightRecorder& flight = ctx.flight;
  flight.record(obs::FrEventType::FrameEnd, f.frame, -1, f.measured_ms,
                f.managed ? f.deadline_ms : 0.0);
  if (f.deadline_miss) {
    flight.record(obs::FrEventType::DeadlineMiss, f.frame, -1, f.measured_ms,
                  f.deadline_ms);
  }
  if (f.repartitioned) {
    flight.record(obs::FrEventType::Repartition, f.frame, -1,
                  std::accumulate(f.plan.begin(), f.plan.end(), 0.0),
                  std::accumulate(prev_plan_.begin(), prev_plan_.end(), 0.0));
  }
  // Execution lanes of the frame: a data-parallel task striped s-ways
  // occupies s CPUs.  On the simulated source the executed tasks run back
  // to back from the frame's simulated start.
  i32 total_stripes = 0;
  for (const graph::TaskExecution& exec : record.tasks) {
    if (!exec.executed) continue;
    const i32 stripes = app::node_data_parallel(exec.node)
                            ? f.plan[static_cast<usize>(exec.node)]
                            : 1;
    total_stripes += stripes;
    if (simulated()) {
      flight.record(obs::FrEventType::SimTask, f.frame, exec.node,
                    exec.simulated_ms, static_cast<f64>(stripes));
    }
  }

  obs::MetricsRegistry& m = ctx.metrics;
  m.counter("tripleC_frames_total", "Frames run by the Triple-C loop").add();
  if (deadline_set_) {
    m.gauge("tripleC_deadline_ms", "Active per-frame deadline")
        .set(deadline_ms_);
  }
  // Register the families unconditionally so each exists from frame one.
  obs::Counter& misses =
      m.counter("tripleC_deadline_miss_total",
                "Managed frames whose measured latency exceeded the deadline");
  if (f.deadline_miss) misses.add();
  obs::Counter& drops = m.counter(
      "tripleC_dropped_total",
      "Late frames removed from the display stream (Drop policy)");
  if (f.dropped) drops.add();
  obs::Counter& reparts =
      m.counter("tripleC_repartitions_total",
                "Managed frames whose stripe plan changed (live repartition)");
  if (f.repartitioned) reparts.add();
  m.gauge("tripleC_qos_level", "QoS quality level applied this frame")
      .set(static_cast<f64>(f.quality_level));

  const std::vector<f64> bounds = obs::latency_buckets_ms();
  m.histogram("tripleC_frame_predicted_ms", "Triple-C predicted frame latency",
              bounds)
      .record(f.predicted_ms);
  m.histogram("tripleC_frame_measured_ms",
              "Measured frame latency on the loop's clock", bounds)
      .record(f.measured_ms);
  // Same skip rule and formula as model::evaluate_accuracy so the metric is
  // directly comparable with AccuracyReport::mape_pct.
  f64 error_pct = 0.0;
  obs::Histogram& error_hist =
      m.histogram("tripleC_frame_prediction_error_pct",
                  "Per-frame |predicted - measured| / measured in percent",
                  obs::error_pct_buckets());
  if (const std::optional<f64> err =
          relative_error_pct(f.predicted_ms, f.measured_ms)) {
    error_pct = std::fabs(*err);
    error_hist.record(error_pct);
  }
  m.histogram("tripleC_frame_stripes",
              "Total execution lanes (stripes) of the frame's plan",
              obs::small_count_buckets())
      .record(static_cast<f64>(total_stripes));

  if (simulated()) {
    m.histogram("tripleC_frame_output_ms",
                "Output latency after the delay line", bounds)
        .record(f.output_ms);
    ctx.frames.add(obs::FrameSample{
        f.frame, f.scenario, f.quality_level, total_stripes,
        f.predicted_ms, f.measured_ms, f.output_ms, deadline_ms_,
        f.fits_deadline, error_pct});
    sim_clock_ms_ += f.output_ms;
  }
}

bool Executor::check_drift(obs::DriftRule& rule,
                           const obs::CalibrationWindow::Stats& s, i32 frame,
                           i32 node, const std::string& predictor) {
  const bool crossed = rule.crossed(s);
  if (crossed) ++stats_.drift_alerts;
  if (!obs::enabled()) return crossed;
  obs::MetricsRegistry& m = obs::global().metrics;
  const std::string labels = obs::label("predictor", predictor);
  m.gauge("tripleC_drift_error_pct",
          "Rolling mean |predicted-measured|/measured per predictor", labels)
      .set(s.mean_ape_pct);
  if (crossed) {
    obs::global().flight.record(obs::FrEventType::DriftAlert, frame, node,
                                s.mean_ape_pct, obs::DriftRule::kThresholdPct);
    m.counter("tripleC_drift_alerts_total", "Drift alerts fired per predictor",
              labels)
        .add();
  }
  return crossed;
}

void Executor::run_diagnostics(const ExecutedFrame& f) {
  Diagnostics& d = *diag_;
  // The SLO monitor is born the moment the deadline is known (its
  // thresholds are deadline-relative).
  if (!d.slo.has_value() && deadline_set_) {
    std::vector<obs::SloSpec> specs = obs::deadline_slos("", deadline_ms_);
    obs::SloSpec jitter;
    jitter.name = "jitter_p99_minus_p50_ms";
    jitter.kind = obs::SloKind::JitterP99MinusP50Ms;
    jitter.threshold = deadline_ms_ * kSloJitterFactor;
    specs.push_back(jitter);
    d.slo.emplace(std::move(specs),
                  obs::enabled() ? &obs::global().metrics : nullptr);
  }

  // --- drift: predicted vs measured frame latency --------------------------
  bool drift = false;
  if (f.managed) {
    if (const std::optional<f64> err =
            relative_error_pct(f.predicted_ms, f.measured_ms)) {
      d.frame_window.add(*err);
      drift = check_drift(d.frame_drift, d.frame_window.stats(), f.frame, -1,
                          kFrameDriftStream);
    }
  }

  // --- SLOs ---------------------------------------------------------------
  std::vector<obs::SloBreach> breaches;
  if (d.slo.has_value() && f.managed) {
    breaches = d.slo->observe_frame(f.frame, f.measured_ms, f.deadline_miss);
    for (usize i = 0; i < breaches.size(); ++i) {
      ++stats_.slo_breaches;
      if (obs::enabled()) {
        obs::global().flight.record(obs::FrEventType::SloBreach,
                                    breaches[i].frame, narrow<i32>(i),
                                    breaches[i].value, breaches[i].threshold);
      }
    }
  }

  // --- post-mortem triggers -----------------------------------------------
  std::string reason;
  const obs::SloBreach* trigger_breach = nullptr;
  if (f.deadline_miss) {
    reason = "deadline_miss";
    if (!breaches.empty()) trigger_breach = &breaches.front();
  } else if (!breaches.empty()) {
    reason = "slo_breach:" + breaches.front().slo;
    trigger_breach = &breaches.front();
  } else if (drift) {
    reason = std::string("drift:") + kFrameDriftStream;
  }
  if (!reason.empty()) {
    const std::string path =
        d.postmortem.write(postmortem_context(f, reason, trigger_breach),
                           obs::global().flight, obs::global().metrics);
    if (!path.empty()) ++stats_.postmortems;
  }
}

obs::PredictorStateSummary Executor::predictor_summary() const {
  obs::PredictorStateSummary s;
  const std::vector<rt::NodeForecast> fc = forecast();
  for (i32 node = 0; node < app::kNodeCount; ++node) {
    const rt::NodeForecast& f = fc[static_cast<usize>(node)];
    s.nodes.push_back({obs::global().node_name(node), f.serial_ms, f.active});
  }
  if (diag_ != nullptr) {
    s.drift_errors_pct.emplace_back(kFrameDriftStream,
                                    diag_->frame_window.stats().mean_ape_pct);
  }
  return s;
}

obs::PostmortemContext Executor::postmortem_context(
    const ExecutedFrame& f, const std::string& reason,
    const obs::SloBreach* breach) const {
  obs::PostmortemContext ctx;
  ctx.reason = reason;
  ctx.frame = f.frame;
  ctx.deadline_ms = deadline_ms_;
  ctx.predicted_ms = f.predicted_ms;
  ctx.measured_ms = f.measured_ms;
  ctx.plan = rt::plan_to_string(f.plan);
  ctx.quality_level = f.quality_level;
  ctx.scenario = f.scenario;
  ctx.predictors = predictor_summary();
  if (ledger_ != nullptr) {
    ctx.ledger_rows = ledger_->recent(kPostmortemLedgerRows);
  }
  ctx.extra.emplace_back("policy", std::string(to_string(config_.policy)));
  ctx.extra.emplace_back("source", simulated() ? "simulated" : "host");
  ctx.extra.emplace_back("workers", std::to_string(pool_->thread_count()));
  // SLO-breach context: which objective fired, at what value, against which
  // threshold — plus the monitor's window aggregates, so a bundle is
  // diagnosable without replaying the run.
  if (breach != nullptr) {
    ctx.extra.emplace_back("slo_name", breach->slo);
    ctx.extra.emplace_back("slo_kind", obs::to_string(breach->kind));
    ctx.extra.emplace_back("slo_value", std::to_string(breach->value));
    ctx.extra.emplace_back("slo_threshold", std::to_string(breach->threshold));
  }
  if (diag_ != nullptr && diag_->slo.has_value()) {
    const obs::SloMonitor::WindowStats w = diag_->slo->window_snapshot();
    ctx.extra.emplace_back("slo_window_frames", std::to_string(w.frames));
    ctx.extra.emplace_back("slo_window_miss_rate",
                           std::to_string(w.miss_rate));
    ctx.extra.emplace_back("slo_window_p50_ms", std::to_string(w.p50));
    ctx.extra.emplace_back("slo_window_p99_ms", std::to_string(w.p99));
  }
  return ctx;
}

std::string Executor::write_postmortem(const std::string& reason) {
  if (diag_ == nullptr) return "";
  const std::string path =
      diag_->postmortem.write(postmortem_context(last_frame_, reason),
                              obs::global().flight, obs::global().metrics,
                              /*force=*/true);
  if (!path.empty()) ++stats_.postmortems;
  return path;
}

PredictorSnapshot Executor::snapshot_predictors() const {
  PredictorSnapshot snap;
  snap.predictor = predictor_;
  for (usize node = 0; node < app::kNodeCount; ++node) {
    // Bus demand estimate: summed auxiliary filters (cache/memory/io MB per
    // frame).  Conservative — sums every node that ever ran, not just the
    // nodes active in the current scenario.
    for (i32 r = 2; r < obs::kLedgerResourceCount; ++r) {
      const model::EwmaFilter& aux =
          node_aux_ewma_[node][static_cast<usize>(r - 1)];
      if (aux.primed()) {
        snap.bus_mb_per_frame[static_cast<usize>(r - 2)] += aux.value();
      }
    }
  }
  snap.trained_frames = static_cast<u64>(std::max(0, stats_.frames));
  return snap;
}

std::vector<ExecutedFrame> Executor::run(i32 n) {
  std::vector<ExecutedFrame> frames;
  frames.reserve(static_cast<usize>(n));
  for (i32 t = 0; t < n; ++t) frames.push_back(step(t));
  return frames;
}

std::vector<ExecutedFrame> Executor::run_pipelined(i32 n,
                                                   i32 frames_in_flight) {
  // One mutex serializes plan_frame (submitting thread) against
  // settle_frame (back thread): both touch the predictor state.
  // Admissions and retires are each in frame order, so the pending frames
  // form a FIFO.
  common::Mutex mutex;
  std::deque<ExecutedFrame> pending;
  std::vector<ExecutedFrame> frames(static_cast<usize>(std::max(0, n)));

  FramePipelineConfig pc;
  pc.frames_in_flight = frames_in_flight;
  pc.on_admit = [&](i32 t) {
    common::MutexLock lock(mutex);
    ExecutedFrame f;
    plan_frame(t, frames_in_flight, f);
    pending.push_back(f);
  };
  pc.on_retire = [&](const graph::FrameRecord& record) {
    common::MutexLock lock(mutex);
    ExecutedFrame f = pending.front();
    pending.pop_front();
    measure(record, /*spike_ms=*/0.0, f);
    settle_frame(f, record);
    frames[static_cast<usize>(record.frame)] = f;
  };

  FramePipeline pipeline(app_, std::move(pc));
  for (i32 t = 0; t < n; ++t) pipeline.submit(t);
  pipeline.drain();
  return frames;
}

}  // namespace tc::exec
