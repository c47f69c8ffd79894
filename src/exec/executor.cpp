#include "exec/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <numeric>
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

/// Granularity sibling used as an EWMA fallback while a node's own filter
/// is unprimed (full-frame <-> ROI variants process the same kernel).
i32 sibling_node(i32 node) {
  switch (node) {
    case app::kRdgFull:
      return app::kRdgRoi;
    case app::kRdgRoi:
      return app::kRdgFull;
    case app::kMkxFull:
      return app::kMkxRoi;
    case app::kMkxRoi:
      return app::kMkxFull;
    default:
      return -1;
  }
}

}  // namespace

f64 PredictorSnapshot::mean_frame_ms() const {
  if (frame_markov.fitted()) return frame_markov.unconditional_mean();
  f64 total = 0.0;
  for (usize node = 0; node < node_serial_ms.size(); ++node) {
    if (node_primed[node]) total += node_serial_ms[node];
  }
  return total;
}

Executor::Executor(app::StentBoostConfig app_config, ExecutorConfig config)
    : config_(config),
      owned_pool_(config.shared_pool != nullptr
                      ? nullptr
                      : std::make_unique<plat::ThreadPool>(
                            config.worker_threads <= 0
                                ? 0
                                : static_cast<usize>(config.worker_threads))),
      pool_(config.shared_pool != nullptr ? config.shared_pool
                                          : owned_pool_.get()),
      app_(std::move(app_config), pool_) {
  node_ewma_.fill(model::EwmaFilter(config_.ewma_alpha));
  for (auto& per_node : node_aux_ewma_) {
    per_node.fill(model::EwmaFilter(config_.ewma_alpha));
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
    // Admission control: the graph and platform spec are linted before any
    // frame executes (Strict throws analysis::AnalysisError).
    analysis::AnalysisInput input;
    input.graph = &app_.graph();
    input.platform = &app_.config().platform;
    validation_report_ = analysis::Analyzer{}.run(input);
    analysis::enforce(validation_report_, config_.validation_policy);
  }
  if (config_.audit_at_startup) {
    // Schedulability proof before the first frame: train a throwaway
    // predictor on a simulated copy of the application (the executor's own
    // app keeps its pristine inter-frame state), capture Table-1 memory
    // rows, then audit all scenarios × the runtime plan search space.
    app::StentBoostApp train_app(app_.config());
    model::GraphPredictor predictor(app::kNodeCount, app::kSwitchCount);
    std::vector<graph::FrameRecord> records =
        train_app.run(std::max(1, config_.audit_training_frames));
    std::vector<std::vector<graph::FrameRecord>> seqs = {records};
    predictor.train(seqs);
    std::vector<model::MemoryRow> rows = rt::capture_memory_rows(
        records, app_.config().cost.resolution_scale);
    analysis::audit::AuditResult audit =
        rt::audit_app(train_app, predictor, rows, config_.audit_options);
    audit_report_ = std::move(audit.report);
    analysis::enforce(audit_report_, config_.audit_policy);
  }
  if (config_.deadline_ms > 0.0) {
    deadline_ms_ = config_.deadline_ms;
    deadline_set_ = true;
  }
  if (config_.diagnostics.enabled) {
    obs::MetricsRegistry* metrics =
        obs::enabled() ? &obs::global().metrics : nullptr;
    drift_ = std::make_unique<obs::DriftMonitor>(config_.diagnostics.drift,
                                                 metrics);
    postmortem_ =
        std::make_unique<obs::PostmortemWriter>(config_.diagnostics.postmortem);
    // The SLO monitor waits for the deadline (thresholds derive from it);
    // see run_diagnostics().
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
  if (config_.telemetry.enabled) {
    status_agg_ = std::make_unique<obs::StatusAggregator>();
    status_agg_->set_streams_provider([this] { return status_json(); });
    if (ledger_ != nullptr) {
      status_agg_->set_ledger_provider(
          [this] { return ledger_->rows(); },
          [](i32 node) { return std::string(app::node_name(node)); });
    }
    telemetry_ = std::make_unique<obs::TelemetryServer>(config_.telemetry,
                                                        status_agg_.get());
    telemetry_->start();
    // The validation/audit startup gates above have passed: ready.
    status_agg_->set_ready(true);
  }
}

Executor::StatusSnapshot Executor::status_snapshot() const {
  common::MutexLock lock(status_mutex_);
  return status_;
}

std::string Executor::status_json() const {
  const StatusSnapshot s = status_snapshot();
  char deadline[32];
  std::snprintf(deadline, sizeof(deadline), "%.6g", s.deadline_ms);
  char mean[32];
  std::snprintf(mean, sizeof(mean), "%.6g", s.stats.mean_measured_ms);
  std::string out = "{\"ready\":true,\"streams\":[{\"id\":0";
  out += ",\"name\":\"executor\",\"state\":\"active\"";
  out += ",\"deadline_ms\":" + std::string(deadline);
  out += ",\"frames_done\":" + std::to_string(s.stats.frames);
  out += ",\"managed_frames\":" + std::to_string(s.stats.managed_frames);
  out += ",\"deadline_misses\":" + std::to_string(s.stats.deadline_misses);
  out += ",\"degraded_frames\":" + std::to_string(s.stats.degraded_frames);
  out += ",\"repartitions\":" + std::to_string(s.stats.repartitions);
  out += ",\"mean_ms\":" + std::string(mean);
  out += "}]}";
  return out;
}

i32 Executor::effective_threads() const {
  const i32 pool = narrow<i32>(pool_->thread_count());
  return pool_share_ > 0 ? std::min(pool_share_, pool) : pool;
}

f64 Executor::node_estimate(i32 node) const {
  const auto& filter = node_ewma_[static_cast<usize>(node)];
  if (filter.primed()) return filter.value();
  const i32 sib = sibling_node(node);
  if (sib >= 0 && node_ewma_[static_cast<usize>(sib)].primed()) {
    return node_ewma_[static_cast<usize>(sib)].value();
  }
  return 0.0;
}

std::vector<rt::NodeForecast> Executor::host_forecast() const {
  std::vector<rt::NodeForecast> fc(app::kNodeCount);
  // RDG and ROI switch values are inter-frame state known before the frame
  // starts; the registration outcome is uncertain, so ENH/ZOOM time is
  // always reserved (over-reserving is the safe direction for a deadline).
  const bool rdg = app_.rdg_active();
  const bool roi = app_.roi_valid();
  auto set = [&](i32 node, bool active) {
    auto& f = fc[static_cast<usize>(node)];
    f.active = active;
    f.data_parallel = app::node_data_parallel(node);
    if (active) f.serial_ms = node_estimate(node);
  };
  set(app::kRdgFull, rdg && !roi);
  set(app::kRdgRoi, rdg && roi);
  set(app::kMkxFull, !roi);
  set(app::kMkxRoi, roi);
  set(app::kCplsSel, true);
  set(app::kReg, true);
  set(app::kRoiEst, true);
  set(app::kGwExt, rdg);
  set(app::kEnh, true);
  set(app::kZoom, true);
  return fc;
}

f64 Executor::feed_back(const graph::FrameRecord& record,
                        const app::StripePlan& plan) {
  f64 serial_total = 0.0;
  for (const graph::TaskExecution& exec : record.tasks) {
    if (!exec.executed) continue;
    // The filters model *serial* execution: normalize striped measurements
    // back through the inverse of the stripe cost model.
    f64 serial_ms = exec.host_ms;
    const i32 stripes = plan[static_cast<usize>(exec.node)];
    if (app::node_data_parallel(exec.node) && stripes > 1) {
      serial_ms = plat::serial_ms_from_striped(config_.host_cost, exec.host_ms,
                                             stripes);
    }
    node_ewma_[static_cast<usize>(exec.node)].update(serial_ms);
    serial_total += serial_ms;
  }
  if (frame_markov_.fitted()) {
    // On-line model training (the paper's profiling feedback).
    frame_markov_.observe_transition(last_serial_total_ms_, serial_total);
  }
  last_serial_total_ms_ = serial_total;
  return serial_total;
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

f64 Executor::plan_frame(i32 t, i32 frames_in_flight, ExecutedFrame& result) {
  result.frame = t;
  result.managed = deadline_set_;
  result.deadline_ms = deadline_ms_;

  rt::PlanChoice choice;
  choice.plan = app::serial_plan();
  app::StripePlan plan = app::serial_plan();
  f64 ewma_total = 0.0;  // pre-Markov serial-equivalent forecast (drift input)
  std::vector<rt::NodeForecast> fc;  // Markov-scaled (ledger prediction input)
  if (result.managed && config_.adapt) {
    fc = host_forecast();
    if (ledger_ != nullptr && config_.ledger_bias_correction) bias_correct(fc);
    // Markov correction: scale the long-term EWMA forecast by the chain's
    // conditional expectation of the next frame total (short-term state).
    for (const rt::NodeForecast& f : fc) {
      if (f.active) ewma_total += f.serial_ms;
    }
    if (frame_markov_.fitted() && ewma_total > 1e-9) {
      const f64 markov_total =
          frame_markov_.predict_next(last_serial_total_ms_);
      const f64 scale = std::clamp(markov_total / ewma_total, 0.5, 2.0);
      for (rt::NodeForecast& f : fc) f.serial_ms *= scale;
    }
    if (config_.policy == DeadlinePolicy::Degrade && quality_index_ > 0) {
      const auto ladder = rt::quality_ladder();
      // Recovery hysteresis: lift one level only after qos_recover_after
      // consecutive frames whose forecast fits at the better level.
      std::vector<rt::NodeForecast> better_fc = rt::degrade_forecast(
          fc, ladder[static_cast<usize>(quality_index_ - 1)]);
      const rt::PlanChoice better =
          rt::choose_plan(config_.host_cost, better_fc, deadline_ms_,
                          config_.max_stripes_per_task,
                          effective_threads());
      recover_streak_ = better.fits_budget ? recover_streak_ + 1 : 0;
      if (recover_streak_ >= config_.qos_recover_after) {
        apply_quality(t, quality_index_ - 1);
        recover_streak_ = 0;
      }
    }
    auto plan_at_current_quality = [&]() {
      std::vector<rt::NodeForecast> eff = fc;
      if (quality_index_ > 0) {
        eff = rt::degrade_forecast(
            fc, rt::quality_ladder()[static_cast<usize>(quality_index_)]);
      }
      return rt::choose_plan(config_.host_cost, eff, deadline_ms_,
                             config_.max_stripes_per_task,
                             effective_threads());
    };
    choice = plan_at_current_quality();
    if (config_.policy == DeadlinePolicy::Degrade) {
      const i32 max_index = narrow<i32>(rt::quality_ladder().size()) - 1;
      while (!choice.fits_budget && quality_index_ < max_index) {
        apply_quality(t, quality_index_ + 1);
        recover_streak_ = 0;
        choice = plan_at_current_quality();
      }
    }
    plan = choice.plan;
    result.predicted_host_ms = choice.estimated_ms;
    if (obs::enabled()) {
      obs::FlightRecorder& flight = obs::global().flight;
      flight.record(obs::FrEventType::PlanChoice, t, -1,
                    std::accumulate(plan.begin(), plan.end(), 0.0),
                    choice.estimated_ms);
      if (frame_markov_.fitted()) {
        flight.record(
            obs::FrEventType::MarkovState, t, -1,
            static_cast<f64>(
                frame_markov_.quantizer().state_of(last_serial_total_ms_)),
            frame_markov_.predict_next(last_serial_total_ms_));
      }
    }
  }
  result.plan = plan;
  result.quality_level = quality_index_;
  app_.set_stripe_plan(plan);
  // Host resource budget: the chosen plan's widest fan-out, capped by this
  // frame's fair share of the pool (pipelining divides the pool among the
  // frames in flight).
  choice.plan = plan;
  app_.set_instance_budget(
      rt::budget_for_plan(choice, effective_threads(), frames_in_flight));
  if (obs::enabled()) {
    obs::global().flight.record(obs::FrEventType::FrameStart, t, -1,
                                result.predicted_host_ms);
  }
  if (ledger_ != nullptr) ledger_predict(t, fc, result);
  return ewma_total;
}

void Executor::ledger_predict(i32 t, std::span<const rt::NodeForecast> fc,
                              const ExecutedFrame& result) {
  std::vector<obs::LedgerSample> preds;
  for (usize node = 0; node < fc.size(); ++node) {
    const rt::NodeForecast& f = fc[node];
    if (!f.active || f.serial_ms <= 0.0) continue;
    obs::LedgerSample s;
    s.node = narrow<i32>(node);
    // CPU: the Markov-scaled serial forecast, striped through the chosen
    // plan — the time this node is actually expected to take.
    f64 cpu_ms = f.serial_ms;
    const i32 stripes = result.plan[node];
    if (f.data_parallel && stripes > 1) {
      cpu_ms = plat::striped_ms_from_serial(config_.host_cost, cpu_ms, stripes);
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
    s.values[static_cast<usize>(obs::LedgerResource::CpuMs)] = exec.host_ms;
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
      result.frame, record.scenario, result.measured_host_ms, actuals);
  // Per-node drift streams: the settled CPU rows feed one DriftMonitor
  // stream per node.  Alerts are counted and flight-recorded but never
  // force a retrain — a single node drifting is an attribution signal, not
  // evidence against the frame-level predictor.
  if (drift_ == nullptr) return;
  for (const obs::LedgerRow& row : rows) {
    if (!row.has_pred(obs::LedgerResource::CpuMs) ||
        !row.has_meas(obs::LedgerResource::CpuMs)) {
      continue;
    }
    const std::string stream =
        "node:" + std::string(app::node_name(row.node));
    const auto cpu = static_cast<usize>(obs::LedgerResource::CpuMs);
    if (auto a =
            drift_->observe(stream, row.frame, row.pred[cpu], row.meas[cpu])) {
      ++stats_.drift_alerts;
      if (obs::enabled()) {
        obs::global().flight.record(obs::FrEventType::DriftAlert, a->frame,
                                    drift_->stream_index(a->stream),
                                    a->statistic, a->threshold);
      }
    }
  }
}

ExecutedFrame Executor::step(i32 t) {
  ExecutedFrame result;
  const f64 ewma_total = plan_frame(t, /*frames_in_flight=*/1, result);

  graph::FrameRecord record = app_.process_frame(t);
  // The frame's latency is the graph execution itself — the sum of the
  // measured task walls.  Rendering the synthetic input (process_frame's
  // other cost) stands in for the camera and is not pipeline work, so it
  // must not contaminate the deadline or the predictor feedback.
  for (const graph::TaskExecution& exec : record.tasks) {
    if (exec.executed) result.measured_host_ms += exec.host_ms;
  }
  // Fault injection: a co-scheduled interferer steals real wall-clock time
  // from the frame.  The tasks' own measurements are untouched (the
  // predictors did not cause the spike and must not be trained on it), but
  // the frame's latency — what the deadline is judged against — inflates.
  const LoadSpike& spike = config_.load_spike;
  if (spike.start_frame >= 0 && spike.busy_ms > 0.0 &&
      t >= spike.start_frame && t < spike.start_frame + spike.frames) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration<f64, std::milli>(spike.busy_ms);
    while (std::chrono::steady_clock::now() < until) {
    }
    result.measured_host_ms += spike.busy_ms;
  }
  settle_frame(result, record, ewma_total);
  return result;
}

void Executor::settle_frame(ExecutedFrame& result,
                            const graph::FrameRecord& record, f64 ewma_total) {
  result.scenario = record.scenario;

  // --- QoS: deadline accounting -------------------------------------------
  if (deadline_set_ && result.measured_host_ms > deadline_ms_) {
    result.deadline_miss = true;
    if (config_.policy == DeadlinePolicy::Drop) result.dropped = true;
  }

  if (obs::enabled()) {
    obs::FlightRecorder& flight = obs::global().flight;
    // Per-node predicted-vs-measured, while node_estimate() still returns
    // the pre-frame filter state (feed_back below updates it).
    for (const graph::TaskExecution& exec : record.tasks) {
      if (!exec.executed) continue;
      flight.record(obs::FrEventType::NodeTiming, result.frame, exec.node,
                    node_estimate(exec.node), exec.host_ms);
    }
    flight.record(obs::FrEventType::FrameEnd, result.frame, -1,
                  result.measured_host_ms, deadline_ms_);
    if (result.deadline_miss) {
      flight.record(obs::FrEventType::DeadlineMiss, result.frame, -1,
                    result.measured_host_ms, deadline_ms_);
    }
  }

  if (ledger_ != nullptr) ledger_settle(result, record);

  // --- feedback + warm-up bookkeeping -------------------------------------
  const f64 serial_total = feed_back(record, result.plan);
  if (!frame_markov_.fitted()) {
    warmup_serial_totals_.push_back(serial_total);
    if (narrow<i32>(warmup_serial_totals_.size()) >= config_.warmup_frames) {
      frame_markov_.fit(warmup_serial_totals_);
    }
  }
  if (!deadline_set_) {
    warmup_measured_ms_.push_back(result.measured_host_ms);
    if (narrow<i32>(warmup_measured_ms_.size()) >= config_.warmup_frames) {
      deadline_ms_ = mean(warmup_measured_ms_) * config_.deadline_headroom;
      deadline_set_ = true;
    }
  }

  result.repartitioned = result.managed && result.plan != prev_plan_;
  if (result.repartitioned && obs::enabled()) {
    obs::global().flight.record(
        obs::FrEventType::Repartition, result.frame, -1,
        std::accumulate(result.plan.begin(), result.plan.end(), 0.0),
        std::accumulate(prev_plan_.begin(), prev_plan_.end(), 0.0));
  }
  prev_plan_ = result.plan;

  ++stats_.frames;
  measured_sum_ms_ += result.measured_host_ms;
  stats_.mean_measured_ms = measured_sum_ms_ / stats_.frames;
  if (result.managed) ++stats_.managed_frames;
  if (result.deadline_miss) ++stats_.deadline_misses;
  if (result.dropped) ++stats_.dropped_frames;
  if (result.quality_level > 0) ++stats_.degraded_frames;
  if (result.repartitioned) ++stats_.repartitions;

  if (obs::enabled()) record_frame_observability(result);
  last_frame_ = result;
  if (config_.diagnostics.enabled) {
    run_diagnostics(result, ewma_total, serial_total);
  }

  {
    // Refresh the off-thread status mirror (status_snapshot()); frame
    // counters and the deadline are otherwise stepping-thread-only state.
    common::MutexLock lock(status_mutex_);
    status_.stats = stats_;
    status_.deadline_ms = deadline_set_ ? deadline_ms_ : 0.0;
  }
}

void Executor::record_frame_observability(const ExecutedFrame& f) {
  obs::ObsContext& ctx = obs::global();
  obs::MetricsRegistry& m = ctx.metrics;

  m.counter("tripleC_exec_frames_total", "Frames executed on the host").add();
  if (deadline_set_) {
    m.gauge("tripleC_exec_deadline_ms", "Active per-frame host deadline")
        .set(deadline_ms_);
  }
  // Register the families unconditionally so each exists from frame one.
  obs::Counter& misses =
      m.counter("tripleC_exec_deadline_miss_total",
                "Frames whose measured host latency exceeded the deadline");
  if (f.deadline_miss) misses.add();
  obs::Counter& drops = m.counter(
      "tripleC_exec_dropped_total",
      "Late frames removed from the display stream (Drop policy)");
  if (f.dropped) drops.add();
  obs::Counter& reparts =
      m.counter("tripleC_exec_repartitions_total",
                "Managed frames whose stripe plan changed (live repartition)");
  if (f.repartitioned) reparts.add();
  m.gauge("tripleC_exec_quality_level",
          "QoS quality level applied by the executor")
      .set(static_cast<f64>(f.quality_level));

  const std::vector<f64> bounds = obs::latency_buckets_ms();
  m.histogram("tripleC_exec_frame_host_ms",
              "Measured host latency per executed frame", bounds)
      .record(f.measured_host_ms);
  if (f.managed) {
    m.histogram("tripleC_exec_frame_predicted_ms",
                "Predicted host latency of the chosen plan", bounds)
        .record(f.predicted_host_ms);
  }
}

void Executor::run_diagnostics(const ExecutedFrame& f, f64 ewma_total,
                               f64 serial_total) {
  // The SLO monitor is born the moment the deadline is known (its
  // thresholds are deadline-relative).
  if (slo_ == nullptr && deadline_set_) {
    const DiagnosticsConfig& d = config_.diagnostics;
    std::vector<obs::SloSpec> specs;
    obs::SloSpec miss;
    miss.name = "deadline_miss_rate";
    miss.kind = obs::SloKind::DeadlineMissRate;
    miss.threshold = d.slo_miss_rate;
    obs::SloSpec p99;
    p99.name = "p99_latency_ms";
    p99.kind = obs::SloKind::P99LatencyMs;
    p99.threshold = deadline_ms_ * d.slo_p99_factor;
    obs::SloSpec jitter;
    jitter.name = "jitter_p99_minus_p50_ms";
    jitter.kind = obs::SloKind::JitterP99MinusP50Ms;
    jitter.threshold = deadline_ms_ * d.slo_jitter_factor;
    for (obs::SloSpec* s : {&miss, &p99, &jitter}) {
      s->window = d.slo_window;
      s->min_frames = d.slo_min_frames;
      s->cooldown_frames = d.slo_cooldown_frames;
      specs.push_back(*s);
    }
    slo_ = std::make_unique<obs::SloMonitor>(
        std::move(specs), obs::enabled() ? &obs::global().metrics : nullptr);
  }

  // --- drift: score both predictor variants --------------------------------
  std::vector<obs::DriftAlert> alerts;
  if (f.managed && config_.adapt) {
    // EWMA-only vs Markov-corrected accuracy, both in the units the
    // respective predictor emits: serial-equivalent for the raw EWMA sum,
    // plan-estimated host latency for the corrected forecast.
    if (auto a = drift_->observe("ewma_only", f.frame, ewma_total,
                                 serial_total)) {
      alerts.push_back(*a);
    }
    if (auto a = drift_->observe("markov_corrected", f.frame,
                                 f.predicted_host_ms, f.measured_host_ms)) {
      alerts.push_back(*a);
    }
  }
  for (const obs::DriftAlert& a : alerts) {
    ++stats_.drift_alerts;
    if (obs::enabled()) {
      obs::global().flight.record(obs::FrEventType::DriftAlert, a.frame,
                                  drift_->stream_index(a.stream), a.statistic,
                                  a.threshold);
    }
    if (config_.diagnostics.retrain_on_drift) force_retrain(a.frame);
  }

  // --- SLOs ---------------------------------------------------------------
  std::vector<obs::SloBreach> breaches;
  if (slo_ != nullptr && f.managed) {
    breaches =
        slo_->observe_frame(f.frame, f.measured_host_ms, f.deadline_miss);
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
  } else if (!alerts.empty()) {
    reason = "drift:" + alerts.front().stream;
  }
  if (!reason.empty()) {
    const std::string path =
        postmortem_->write(postmortem_context(f, reason, trigger_breach),
                           obs::global().flight, obs::global().metrics);
    if (!path.empty()) ++stats_.postmortems;
  }
}

obs::PredictorStateSummary Executor::predictor_summary() const {
  obs::PredictorStateSummary s;
  for (i32 node = 0; node < app::kNodeCount; ++node) {
    const auto& f = node_ewma_[static_cast<usize>(node)];
    s.nodes.push_back({obs::global().node_name(node), f.value(), f.primed()});
  }
  s.markov_fitted = frame_markov_.fitted();
  s.markov_states = frame_markov_.states();
  s.last_serial_total_ms = last_serial_total_ms_;
  s.markov_predicted_next_ms =
      frame_markov_.fitted() ? frame_markov_.predict_next(last_serial_total_ms_)
                             : 0.0;
  if (drift_ != nullptr) {
    for (const char* stream : {"ewma_only", "markov_corrected"}) {
      s.drift_errors_pct.emplace_back(stream,
                                      drift_->smoothed_error_pct(stream));
    }
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
  ctx.predicted_ms = f.predicted_host_ms;
  ctx.measured_ms = f.measured_host_ms;
  ctx.plan = rt::plan_to_string(f.plan);
  ctx.quality_level = f.quality_level;
  ctx.scenario = f.scenario;
  ctx.predictors = predictor_summary();
  if (ledger_ != nullptr) {
    ctx.ledger_rows = ledger_->recent(config_.postmortem_ledger_rows);
  }
  ctx.extra.emplace_back("policy", config_.policy == DeadlinePolicy::Drop
                                       ? "drop"
                                       : "degrade");
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
  if (slo_ != nullptr) {
    const obs::SloMonitor::WindowStats w = slo_->window_snapshot();
    ctx.extra.emplace_back("slo_window_frames", std::to_string(w.frames));
    ctx.extra.emplace_back("slo_window_miss_rate",
                           std::to_string(w.miss_rate));
    ctx.extra.emplace_back("slo_window_p50_ms", std::to_string(w.p50));
    ctx.extra.emplace_back("slo_window_p99_ms", std::to_string(w.p99));
  }
  return ctx;
}

std::string Executor::write_postmortem(const std::string& reason) {
  if (postmortem_ == nullptr) return "";
  const std::string path =
      postmortem_->write(postmortem_context(last_frame_, reason),
                         obs::global().flight, obs::global().metrics,
                         /*force=*/true);
  if (!path.empty()) ++stats_.postmortems;
  return path;
}

void Executor::force_retrain(i32 frame) {
  frame_markov_ = model::MarkovChain();
  warmup_serial_totals_.clear();
  ++stats_.retrains;
  if (obs::enabled()) {
    obs::global().flight.record(obs::FrEventType::Retrain, frame, -1,
                                static_cast<f64>(frame));
  }
}

void Executor::bias_correct(std::vector<rt::NodeForecast>& fc) const {
  for (usize node = 0; node < fc.size(); ++node) {
    rt::NodeForecast& f = fc[node];
    if (!f.active || f.serial_ms <= 0.0) continue;
    const obs::CalibrationWindow::Stats s = ledger_->node_calibration(
        narrow<i32>(node), obs::LedgerResource::CpuMs);
    if (s.samples < config_.bias_min_samples) continue;
    // Positive bias means the recent predictions over-shot the measurements,
    // so dividing by (1 + bias) recentres the forecast.  The clamp keeps one
    // pathological window from swinging the plan; a near-zero denominator
    // (window full of pred≈0 rows) is skipped outright.
    const f64 denom = 1.0 + s.bias_pct / 100.0;
    if (denom < 0.05) continue;
    f.serial_ms *= std::clamp(1.0 / denom, 1.0 - config_.bias_correction_clamp,
                              1.0 + config_.bias_correction_clamp);
  }
}

PredictorSnapshot Executor::snapshot_predictors() const {
  PredictorSnapshot snap;
  for (usize node = 0; node < app::kNodeCount; ++node) {
    const model::EwmaFilter& f = node_ewma_[node];
    snap.node_primed[node] = f.primed();
    snap.node_serial_ms[node] = f.value();
    // Bus demand estimate: summed auxiliary filters (cache/memory/io MB per
    // frame).  Conservative — sums every node that ever ran, not just the
    // nodes active in the current scenario.
    for (i32 r = 2; r < obs::kLedgerResourceCount; ++r) {
      const model::EwmaFilter& aux = node_aux_ewma_[node][static_cast<usize>(r - 1)];
      if (aux.primed()) snap.bus_mb_per_frame[static_cast<usize>(r - 2)] += aux.value();
    }
  }
  snap.frame_markov = frame_markov_;
  snap.last_serial_total_ms = last_serial_total_ms_;
  snap.trained_frames = static_cast<u64>(std::max(0, stats_.frames));
  return snap;
}

void Executor::warm_start(const PredictorSnapshot& snap) {
  if (!snap.trained()) return;
  for (usize node = 0; node < app::kNodeCount; ++node) {
    if (!snap.node_primed[node]) continue;
    // A fresh filter primed with the snapshot level: the stream then adapts
    // from the donor's estimate instead of from zero.
    model::EwmaFilter f(config_.ewma_alpha);
    f.update(snap.node_serial_ms[node]);
    node_ewma_[node] = f;
  }
  if (snap.frame_markov.fitted()) {
    frame_markov_ = snap.frame_markov;
    last_serial_total_ms_ = snap.last_serial_total_ms;
    // The chain is already fitted — settle_frame's warm-up fitting is
    // skipped, so the training series must stay empty.
    warmup_serial_totals_.clear();
  }
}

std::vector<ExecutedFrame> Executor::run(i32 n) {
  std::vector<ExecutedFrame> frames;
  frames.reserve(static_cast<usize>(n));
  for (i32 t = 0; t < n; ++t) frames.push_back(step(t));
  return frames;
}

std::vector<ExecutedFrame> Executor::run_pipelined(i32 n,
                                                   i32 frames_in_flight) {
  struct Pending {
    ExecutedFrame result;
    f64 ewma_total = 0.0;
  };
  // One mutex serializes plan_frame (front-stage thread) against
  // settle_frame (back-stage thread): both touch the predictor state.
  // Admissions and retires are each in frame order, so the pending frames
  // form a FIFO.
  common::Mutex mutex;
  std::deque<Pending> pending;
  std::vector<ExecutedFrame> frames(static_cast<usize>(std::max(0, n)));

  FramePipelineConfig pc;
  pc.frames_in_flight = frames_in_flight;
  pc.deadline_ms = deadline_ms_;
  pc.collect_records = false;
  pc.on_admit = [&](i32 t) {
    common::MutexLock lock(mutex);
    Pending p;
    p.ewma_total = plan_frame(t, frames_in_flight, p.result);
    pending.push_back(std::move(p));
  };
  pc.on_retire = [&](const graph::FrameRecord& record) {
    common::MutexLock lock(mutex);
    Pending p = std::move(pending.front());
    pending.pop_front();
    for (const graph::TaskExecution& exec : record.tasks) {
      if (exec.executed) p.result.measured_host_ms += exec.host_ms;
    }
    settle_frame(p.result, record, p.ewma_total);
    frames[static_cast<usize>(record.frame)] = p.result;
  };

  FramePipeline pipeline(app_, std::move(pc));
  for (i32 t = 0; t < n; ++t) pipeline.submit(t);
  pipeline.drain();
  return frames;
}

}  // namespace tc::exec
