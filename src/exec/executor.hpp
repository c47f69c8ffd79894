// The Triple-C control loop (paper §6): predict → plan → run → feed back.
//
// Every frame the executor
//
//   1. forecasts each active task's serial time with model::GraphPredictor
//      (node activity from the app's switch state, granularity from the
//      current ROI; ENH and ZOOM are always reserved when planning),
//   2. chooses a stripe plan with rt::choose_plan so the forecast fits the
//      frame deadline — repartitioning live whenever the forecast drifts
//      across a plan boundary,
//   3. executes the frame: StentBoostApp stripes its row kernels over the
//      plat::ThreadPool per the plan,
//   4. normalises the measured task times back to serial, full-quality time
//      (de-striping through the source's stripe law, dividing out the QoS
//      cost factors) and feeds them to the predictor.
//
// The measurement source is fixed at construction (ExecutorConfig::source):
//
//   Host      — task walls stamped by FlowGraph (TaskExecution::host_ms), the
//               host stripe law (ExecutorConfig::host_cost) and the pool
//               share (set_pool_share) as the planner's CPU count;
//   Simulated — the record's simulated latency and task times, the app's
//               cost parameters and the simulated platform's CPU count.
//               Managed frames leave through the output delay line
//               (output = max(measured, deadline)), as in the paper.
//
// The predictor is a trained GraphPredictor handed in by the caller (the
// paper benches train one with the Table 2b kinds, see
// tripleC/paper_kinds.hpp) or, by default, one EWMA per node learnt online
// from frame 0.  The first `warmup_frames` frames run serially only to
// derive the deadline (mean * headroom) when none is configured.
//
// Deadline QoS: a managed frame that measures past its deadline is counted
// as a miss; DeadlinePolicy::Drop removes it from the display stream,
// DeadlinePolicy::Degrade walks the rt::quality_ladder() down until the
// forecast fits again (and back up after a streak of frames that would fit
// one level better).
//
// The graph and predictor are linted by analysis::Analyzer before the first
// frame (Strict policy throws analysis::AnalysisError from the constructor).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/audit.hpp"
#include "app/stentboost.hpp"
#include "exec/deadline.hpp"
#include "obs/ledger.hpp"
#include "obs/postmortem.hpp"
#include "obs/slo.hpp"
#include "platform/thread_pool.hpp"
#include "runtime/partition.hpp"
#include "runtime/qos.hpp"
#include "tripleC/ewma.hpp"
#include "tripleC/graph_predictor.hpp"

namespace tc::exec {

/// Stripe-overhead parameters of the *host* (thread-pool dispatch and
/// barrier are tens of microseconds, unlike the simulated platform's
/// heavyweight task control), used for plan estimation and for the
/// serial <-> striped conversion of measured times.
[[nodiscard]] plat::CostParams host_cost_params();

/// Fault injection: a synthetic co-scheduled interferer.  For `frames`
/// frames starting at `start_frame` the executor busy-spins `busy_ms` of
/// wall-clock time per frame and charges it to the frame's measured host
/// latency (the deadline's measure on the host source) — a deterministic
/// load spike the predictor did not see coming, used to demo/exercise
/// deadline misses, drift alarms and post-mortems.
struct LoadSpike {
  i32 start_frame = -1;  ///< < 0 disables the injection
  i32 frames = 0;
  f64 busy_ms = 0.0;
};

/// Portable snapshot of a trained predictor: the loop's GraphPredictor plus
/// the bus demand the admission controller prices.  The serving layer
/// (serve::PredictorRegistry) publishes one per scenario class at stream
/// retire and prices newly submitted same-class streams from it, without
/// running a probe.  The new stream's own loop still learns from frame 0:
/// one EWMA per node is calibrated by the stream's first frame, while the
/// donor's end-of-sequence levels mispredict a fresh stream's early frames.
struct PredictorSnapshot {
  model::GraphPredictor predictor{app::kNodeCount, app::kSwitchCount};
  /// Mean per-frame traffic per Fig.-4 bus class (cache / memory / I/O MB,
  /// summed node auxiliary filters) — the admission controller's bus-demand
  /// estimate.
  std::array<f64, 3> bus_mb_per_frame{};
  /// Frames the predictor was trained on (0 = empty/cold snapshot).
  u64 trained_frames = 0;

  [[nodiscard]] bool trained() const { return trained_frames > 0; }
  /// Serial-equivalent forecast of a typical frame: the nodes of the
  /// scenario the predictor expects next, each at its current prediction.
  [[nodiscard]] std::vector<rt::NodeForecast> forecast() const;
};

/// Where the loop's frame and task times come from (see the header comment).
enum class MeasurementSource { Host, Simulated };

struct ExecutorConfig {
  MeasurementSource source = MeasurementSource::Host;
  /// Worker threads of the executor-owned pool (0 = the cores in the
  /// process affinity mask).
  i32 worker_threads = 4;
  /// External pool shared with other executors (the serving layer runs N
  /// streams on one pool).  Non-null skips spawning an owned pool —
  /// worker_threads is then ignored; the pool must outlive the executor.
  plat::ThreadPool* shared_pool = nullptr;
  /// Fixed per-frame deadline; <= 0 derives it from the warm-up phase as
  /// mean measured latency * deadline_headroom.
  f64 deadline_ms = 0.0;
  f64 deadline_headroom = 1.30;
  i32 warmup_frames = 8;
  DeadlinePolicy policy = DeadlinePolicy::Drop;
  i32 max_stripes_per_task = 4;
  /// Host stripe-overhead parameters (see host_cost_params()); the
  /// simulated source uses the app's cost parameters instead.
  plat::CostParams host_cost = host_cost_params();
  /// Run the triplec-lint static passes over the graph, predictor and
  /// platform before the first frame.
  bool validate_at_startup = true;
  analysis::Policy validation_policy = analysis::Policy::Strict;
  /// Run the triplec-audit schedulability proof before the first frame over
  /// all scenarios × the runtime plan search space (deadline feasibility,
  /// per-bus budgets, transition pricing), priced by the loop's predictor
  /// when it is trained, else by one trained on a throwaway simulated copy
  /// of the application.  Strict audit_policy refuses graphs with
  /// infeasible reachable scenarios.
  bool audit_at_startup = false;
  analysis::Policy audit_policy = analysis::Policy::Strict;
  analysis::audit::AuditOptions audit_options;
  /// Diagnostics: drift and SLO monitoring, with post-mortem bundles
  /// written to this directory (obs/postmortem.hpp).  Empty = off.
  std::string postmortem_dir;
  /// Prediction ledger (predicted-vs-actual resource attribution per frame
  /// and node; see obs/ledger.hpp).  Off by default.
  obs::LedgerConfig ledger;
  /// Synthetic interference (see LoadSpike); off by default.
  LoadSpike load_spike;
};

/// Outcome of one executed frame.
struct ExecutedFrame {
  i32 frame = -1;
  graph::ScenarioId scenario = 0;
  app::StripePlan plan = app::serial_plan();
  /// Predicted latency of the chosen plan on the source's clock (the
  /// scenario-likely forecast at the applied quality level).
  f64 predicted_ms = 0.0;
  /// Measured latency on the source's clock: measured_host_ms on the host,
  /// the record's simulated latency on the simulated source.
  f64 measured_ms = 0.0;
  /// Latency at which the frame leaves the pipeline: on the simulated
  /// source managed frames wait in the output delay line until the
  /// deadline instant (paper §6: "keep the output latency stable at the
  /// initialized value"), so only overruns show; otherwise measured_ms.
  f64 output_ms = 0.0;
  /// Summed wall-clock time of the executed tasks (input rendering
  /// excluded) plus any injected load spike.
  f64 measured_host_ms = 0.0;
  /// Per-node time on the source's clock as executed (0 = not executed).
  std::array<f64, app::kNodeCount> task_ms{};
  f64 deadline_ms = 0.0;
  /// False for warm-up (serial, deadline not yet set) frames.
  bool managed = false;
  /// The chosen plan's estimate fits the deadline.
  bool fits_deadline = false;
  bool deadline_miss = false;
  /// DeadlinePolicy::Drop removed this frame from the display stream.
  bool dropped = false;
  /// QoS quality level applied this frame (0 = full quality).
  i32 quality_level = 0;
  /// The stripe plan changed vs. the previous frame (live repartition).
  bool repartitioned = false;
};

struct ExecutorStats {
  i32 frames = 0;
  i32 managed_frames = 0;
  i32 deadline_misses = 0;
  i32 dropped_frames = 0;
  i32 degraded_frames = 0;
  i32 repartitions = 0;
  f64 mean_measured_ms = 0.0;
  // --- diagnostics (all 0 when ExecutorConfig::postmortem_dir is empty) ---
  i32 drift_alerts = 0;
  i32 slo_breaches = 0;
  i32 postmortems = 0;
};

class Executor {
 public:
  /// Learns online from frame 0 with one EWMA per node.
  explicit Executor(app::StentBoostConfig app_config,
                    ExecutorConfig config = {});
  /// Drives `predictor` (typically trained offline with the Table 2b kinds).
  Executor(app::StentBoostConfig app_config, ExecutorConfig config,
           model::GraphPredictor predictor);

  /// Predict, choose a plan, execute frame `t`, feed back.
  ExecutedFrame step(i32 t);

  /// Run frames [0, n).
  std::vector<ExecutedFrame> run(i32 n);

  /// Run frames [0, n) with up to `frames_in_flight` frames overlapped
  /// through exec::FramePipeline (front stage analyses frame t+1 while the
  /// back stage enhances frame t).  Plans are chosen at admission and frames
  /// settle at retire — both in frame order — so the FrameRecords are
  /// byte-identical to run(n); only the predictor feedback may lag by the
  /// frames in flight.  The per-frame instance budget divides the pool
  /// among the in-flight frames (rt::budget_for_plan).
  std::vector<ExecutedFrame> run_pipelined(i32 n, i32 frames_in_flight = 2);

  [[nodiscard]] f64 deadline_ms() const { return deadline_ms_; }
  [[nodiscard]] bool deadline_set() const { return deadline_set_; }
  [[nodiscard]] app::StentBoostApp& app() { return app_; }
  [[nodiscard]] plat::ThreadPool& pool() { return *pool_; }
  [[nodiscard]] const ExecutorConfig& config() const { return config_; }
  [[nodiscard]] const model::GraphPredictor& predictor() const {
    return predictor_;
  }
  [[nodiscard]] const analysis::Report& validation_report() const {
    return validation_report_;
  }
  /// Diagnostics of the startup schedulability audit (empty when
  /// audit_at_startup is off or nothing fired).
  [[nodiscard]] const analysis::Report& audit_report() const {
    return audit_report_;
  }
  [[nodiscard]] ExecutorStats stats() const { return stats_; }

  /// Serial-equivalent forecast of the coming frame.  `reserve_enh_zoom`
  /// (planning) always reserves ENH and ZOOM — over-reserving is the safe
  /// direction for a deadline; false takes the registration outcome from
  /// the scenario the predictor expects next (the reported prediction).
  [[nodiscard]] std::vector<rt::NodeForecast> forecast(
      bool reserve_enh_zoom = true) const;
  /// The planning forecast under the name the benchmark harness reads.
  [[nodiscard]] std::vector<rt::NodeForecast> host_forecast() const {
    return forecast();
  }

  /// Prediction ledger (null when LedgerConfig::enabled is false).
  [[nodiscard]] obs::PredictionLedger* ledger() { return ledger_.get(); }
  [[nodiscard]] const obs::PredictionLedger* ledger() const {
    return ledger_.get();
  }

  // --- diagnostics (null when ExecutorConfig::postmortem_dir is empty) ----
  /// The SLO monitor, once the deadline is known (thresholds derive from it).
  [[nodiscard]] obs::SloMonitor* slo_monitor() {
    return diag_ != nullptr && diag_->slo.has_value() ? &*diag_->slo
                                                       : nullptr;
  }
  [[nodiscard]] obs::PostmortemWriter* postmortem_writer() {
    return diag_ != nullptr ? &diag_->postmortem : nullptr;
  }

  /// Snapshot of the predictor (per-node forecast, frame drift error) as
  /// embedded in post-mortem bundles.
  [[nodiscard]] obs::PredictorStateSummary predictor_summary() const;

  /// Explicitly capture a post-mortem bundle (reason "manual" unless given);
  /// returns the bundle path or "" when diagnostics/postmortems are off.
  std::string write_postmortem(const std::string& reason = "manual");

  /// Cap the pool threads the host planner assumes for this executor's
  /// frames — the weighted fair share the serving layer grants the stream
  /// under a shared pool (0 = the whole pool).  Set it only between this
  /// executor's frames, from the thread that steps it.
  void set_pool_share(i32 threads) { pool_share_ = threads; }
  /// Pool threads the planner currently assumes (share-capped pool size).
  [[nodiscard]] i32 effective_threads() const;

  /// Export the predictor for pricing a same-class stream
  /// (serve::PredictorRegistry).
  [[nodiscard]] PredictorSnapshot snapshot_predictors() const;

 private:
  [[nodiscard]] bool simulated() const {
    return config_.source == MeasurementSource::Simulated;
  }
  /// Stripe law of the source (serial <-> striped conversions, estimates).
  [[nodiscard]] const plat::CostParams& cost() const;
  /// CPU count the planner may stripe across.
  [[nodiscard]] i32 planner_cpus() const;

  void apply_quality(i32 frame, i32 ladder_index);

  /// Select and apply the stripe plan + instance budget for frame `t` and
  /// fill the prediction-side fields of `result`.  Touches predictor state
  /// — callers outside the serial step() path must serialize
  /// plan_frame/settle_frame (run_pipelined guards both with one mutex).
  void plan_frame(i32 t, i32 frames_in_flight, ExecutedFrame& result);
  /// Fill the measured fields of `result` from the executed record;
  /// `spike_ms` of injected interference is charged to the frame.
  void measure(const graph::FrameRecord& record, f64 spike_ms,
               ExecutedFrame& result) const;
  /// Post-execution bookkeeping for a measured frame: deadline accounting,
  /// the output delay line, predictor feedback, deadline derivation, stats,
  /// observability and diagnostics.  Frames must settle in order.
  void settle_frame(ExecutedFrame& result, const graph::FrameRecord& record);

  /// Ledger prediction rows for frame `t` under the chosen plan: CPU from
  /// the planning forecast striped through the plan, memory and per-bus
  /// traffic from the auxiliary per-node EWMA filters.
  void ledger_predict(i32 t, std::span<const rt::NodeForecast> fc,
                      const ExecutedFrame& result);
  /// Settle the frame's ledger rows from the measured task executions,
  /// update the auxiliary filters and, with diagnostics on, apply the drift
  /// rule to each settled node's CPU calibration window.
  void ledger_settle(const ExecutedFrame& result,
                     const graph::FrameRecord& record);

  /// Before the frame runs: frame_start (b = the simulated start), the plan
  /// choice.  After it ran: frame_end, misses, repartitions, the simulated
  /// tasks, metrics and (simulated source) the per-frame log.
  void record_frame_start(const ExecutedFrame& f, f64 planned_ms);
  void record_frame_observability(const ExecutedFrame& f,
                                  const graph::FrameRecord& record);
  /// Drift/SLO evaluation + post-mortem triggers for one finished frame.
  void run_diagnostics(const ExecutedFrame& f);
  /// Apply the drift rule to one calibration window: export its mean error
  /// and, on a crossing, count, flight-record and export the alert.
  /// `node` is -1 for the frame-latency window.
  bool check_drift(obs::DriftRule& rule,
                   const obs::CalibrationWindow::Stats& s, i32 frame, i32 node,
                   const std::string& predictor);
  /// `breach` (optional) attaches the triggering SLO's identity, value and
  /// threshold plus the monitor's window aggregates to the bundle's extra
  /// fields.
  [[nodiscard]] obs::PostmortemContext postmortem_context(
      const ExecutedFrame& f, const std::string& reason,
      const obs::SloBreach* breach = nullptr) const;

  ExecutorConfig config_;
  /// Owned worker pool; null when ExecutorConfig::shared_pool injects an
  /// external one.  pool_ always points at the pool in use.
  std::unique_ptr<plat::ThreadPool> owned_pool_;
  plat::ThreadPool* pool_;
  app::StentBoostApp app_;
  model::GraphPredictor predictor_;
  analysis::Report validation_report_;
  analysis::Report audit_report_;

  /// Auxiliary per-node filters for the non-CPU ledger resources (memory
  /// footprint and the three bus classes), fed from measured actuals at
  /// settle; indexed [node][resource - 1] (resource 0 = CpuMs comes from
  /// the predictor).
  std::array<std::array<model::EwmaFilter, obs::kLedgerResourceCount - 1>,
             app::kNodeCount>
      node_aux_ewma_;
  /// Graph topology per node: no incoming edge (camera-fed source) / no
  /// outgoing edge (display sink) — the ledger's I/O-bus attribution.
  std::array<bool, app::kNodeCount> node_is_source_{};
  std::array<bool, app::kNodeCount> node_is_sink_{};
  /// Measured warm-up latencies (deadline derivation).
  std::vector<f64> warmup_measured_ms_;

  f64 deadline_ms_ = 0.0;
  bool deadline_set_ = false;
  /// Planner thread cap under a shared pool (see set_pool_share; 0 = all).
  i32 pool_share_ = 0;
  app::StripePlan prev_plan_ = app::serial_plan();
  /// Index into rt::quality_ladder() currently applied (Degrade policy).
  i32 quality_index_ = 0;
  i32 recover_streak_ = 0;
  /// Simulated-timeline cursor (frame_start payload): frames are laid out
  /// back to back at their output (delay-line) latency.
  f64 sim_clock_ms_ = 0.0;

  ExecutorStats stats_;
  f64 measured_sum_ms_ = 0.0;

  /// Diagnostics state (allocated only with a postmortem_dir).
  struct Diagnostics {
    explicit Diagnostics(std::string dir) : postmortem(std::move(dir)) {}
    /// Signed frame-latency errors of the last 64 managed frames.
    obs::CalibrationWindow frame_window{64};
    obs::DriftRule frame_drift;
    /// One rule per node over the ledger's CPU calibration windows.
    std::array<obs::DriftRule, app::kNodeCount> node_drift{};
    /// Created once the deadline is known (its thresholds derive from it).
    std::optional<obs::SloMonitor> slo;
    obs::PostmortemWriter postmortem;
  };
  std::unique_ptr<Diagnostics> diag_;
  /// Prediction ledger (allocated only when config_.ledger.enabled).
  std::unique_ptr<obs::PredictionLedger> ledger_;
  /// Admission ticket of the next planned frame (frame order).
  i64 next_ticket_ = 0;
  /// Last frame result, kept for explicit write_postmortem() requests.
  ExecutedFrame last_frame_;
};

}  // namespace tc::exec
