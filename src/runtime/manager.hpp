// Runtime resource manager for semi-automatic parallelization (paper §6).
//
// Process:
//   * Initialization — the first frames run serially; the output-latency
//     budget is set close to the observed average case.
//   * Runtime adaptation — before every frame, the Triple-C predictions of
//     the active tasks are combined into a latency forecast; the flow graph
//     is repartitioned (stripe plan) so the forecast fits the budget.
//   * Profiling — predicted vs. measured values are recorded for accuracy
//     reporting and optional online model refresh.
#pragma once

#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/audit.hpp"
#include "app/stentboost.hpp"
#include "runtime/partition.hpp"
#include "runtime/qos.hpp"
#include "tripleC/accuracy.hpp"
#include "tripleC/graph_predictor.hpp"

namespace tc::rt {

struct ManagerConfig {
  /// Fixed latency budget; <= 0 derives it from the warm-up phase as
  /// mean * budget_headroom.
  f64 latency_budget_ms = 0.0;
  f64 budget_headroom = 1.10;
  i32 warmup_frames = 10;
  i32 max_stripes_per_task = 4;
  /// When true, predictions are refreshed online from the executed frames
  /// (the paper's profiling feedback).
  bool online_observation = true;
  /// When true, the QoS ladder degrades the application quality whenever
  /// even the widest stripe plan misses the budget.
  bool enable_qos = false;
  /// Run the triplec-lint static passes over the graph, predictor and
  /// platform at construction, before any frame executes.
  bool validate_at_startup = true;
  /// Strict: lint errors throw analysis::AnalysisError from the constructor.
  /// Permissive: diagnostics are only collected (see validation_report()).
  analysis::Policy validation_policy = analysis::Policy::Strict;
  /// Run the triplec-audit schedulability proof (all scenarios × the plan
  /// search space, per-bus budgets, transition pricing; see
  /// analysis/audit.hpp) at construction.  Meaningful with a *trained*
  /// predictor — untrained predictions are 0 ms and the proof is vacuous.
  bool audit_at_startup = false;
  /// Strict: audit errors (infeasible reachable scenario, bus-budget
  /// counterexample) throw analysis::AnalysisError from the constructor.
  analysis::Policy audit_policy = analysis::Policy::Strict;
  /// Deadline, pessimism margin, budget fractions of the startup audit.
  analysis::audit::AuditOptions audit_options;
};

struct ManagedFrame {
  graph::FrameRecord record;
  app::StripePlan plan = app::serial_plan();
  f64 predicted_latency_ms = 0.0;
  f64 measured_latency_ms = 0.0;
  /// Latency at which the frame leaves the pipeline: frames that finish
  /// early are held in the output delay line until the budget instant, so
  /// the physician sees a constant latency; only budget overruns show
  /// through (paper §6: "keep the output latency stable at the initialized
  /// value").
  f64 output_latency_ms = 0.0;
  bool fits_budget = false;
  /// QoS quality level applied this frame (0 = full quality).
  i32 quality_level = 0;
};

class RuntimeManager {
 public:
  RuntimeManager(app::StentBoostApp& app, model::GraphPredictor& predictor,
                 ManagerConfig config = {});

  /// Predict, choose a plan, execute frame `t`, feed the measurement back.
  ManagedFrame step(i32 t);

  /// Run frames [0, n).
  std::vector<ManagedFrame> run(i32 n);

  [[nodiscard]] f64 latency_budget_ms() const { return budget_ms_; }
  [[nodiscard]] bool budget_initialized() const { return budget_set_; }

  /// Diagnostics of the startup validation run (empty when
  /// validate_at_startup is off or nothing fired).
  [[nodiscard]] const analysis::Report& validation_report() const {
    return validation_report_;
  }

  /// Diagnostics of the startup schedulability audit (empty when
  /// audit_at_startup is off or nothing fired).
  [[nodiscard]] const analysis::Report& audit_report() const {
    return audit_report_;
  }

  /// Forecast of the coming frame (exposed for tests/benches).
  /// `assume_reg_success` = true gives the conservative forecast used for
  /// budget planning (ENH+ZOOM always reserved); false predicts the REG
  /// switch from the learned scenario state table (used for the reported
  /// latency prediction).
  [[nodiscard]] std::vector<NodeForecast> forecast(
      bool assume_reg_success = true) const;

 private:
  /// Observability hooks, called only when obs::enabled(); `managed` is
  /// false for warm-up (serial) frames.  Before the frame runs: its
  /// frame_start (carrying the simulated start), plan and QoS changes.
  void record_frame_start(i32 t, const ManagedFrame& f, bool managed,
                          bool repartitioned, bool qos_changed);
  /// After it ran: frame_end, one sim_task per executed task, the metrics
  /// registry and the per-frame log.
  void record_frame_observability(const ManagedFrame& f, bool managed,
                                  bool repartitioned, bool qos_changed);

  app::StentBoostApp& app_;
  model::GraphPredictor& predictor_;
  ManagerConfig config_;
  analysis::Report validation_report_;
  analysis::Report audit_report_;
  f64 budget_ms_ = 0.0;
  bool budget_set_ = false;
  std::vector<f64> warmup_latencies_;
  /// Quality level currently applied to the app (QoS).
  QualityLevel applied_quality_;
  /// Simulated-timeline cursor (frame_start payload): frames are laid out
  /// back-to-back at their output (delay-line) latency.
  f64 sim_clock_ms_ = 0.0;
  app::StripePlan prev_plan_ = app::serial_plan();
  i32 prev_quality_ = 0;
  /// Scenario of the previous frame (ScenarioSwitch flight events).
  graph::ScenarioId prev_scenario_ = 0;
  bool scenario_seen_ = false;
};

}  // namespace tc::rt
