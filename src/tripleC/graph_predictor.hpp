// Graph-level Triple-C predictor: one TaskPredictor per flow-graph node plus
// scenario state tables for the data-dependent switches (paper §4: "Data-
// dependent switch statements in the task graph are modeled with state
// tables").
//
// Scenario conditioning: a task whose cost regime depends on the *previous*
// frame's switch outcomes (e.g. the enhancement stage restarts cheaply after
// a failed registration) can be given a context function; a separate
// TaskPredictor is then trained per context value.  The context is always
// derivable before the frame executes (it only looks at the previous
// record), so prediction stays causal.
//
// Train offline from recorded FrameRecords; use online by asking for
// per-task predictions before a frame executes and feeding measured values
// back afterwards.  Latency aggregation under a concrete partitioning, and
// normalising measurements back to serial full-quality time, is the control
// loop's job (exec::Executor).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/record.hpp"
#include "graph/scenario.hpp"
#include "tripleC/predictor.hpp"

namespace tc::model {

class GraphPredictor {
 public:
  /// Context of a node for the coming frame, derived from the previous
  /// frame's record (nullptr on the first frame).  Must be a small integer.
  using ContextFn =
      std::function<u32(const graph::FrameRecord* previous, i32 node)>;

  GraphPredictor(usize task_count, usize switch_count);

  /// Configure the predictor kind of a node (default: EwmaMarkov).
  void configure_task(i32 node, PredictorConfig config);

  /// Install a context function (applies to every node; return 0 for nodes
  /// without scenario-dependent regimes).
  void set_context_fn(ContextFn fn) { context_fn_ = std::move(fn); }

  /// Train every per-(task, context) predictor and the scenario table from
  /// recorded sequences.  Per node, only frames where the node executed
  /// contribute; each recorded sequence forms one training sequence.
  void train(std::span<const std::vector<graph::FrameRecord>> sequences);

  /// Predicted execution time of a node for the coming frame (uses the
  /// last observed record to derive the node's context).
  [[nodiscard]] f64 predict_task(i32 node, f64 roi_pixels = 0.0) const;

  /// True once train() has fitted at least one task predictor.
  [[nodiscard]] bool trained() const;

  /// Feed back one executed frame (advances per-task online state and the
  /// scenario table's notion of the current scenario).  `task_ms[node]` is
  /// the time to learn for each executed node, as the caller measured and
  /// normalised it (indexed by node id, task_count() entries).
  void observe(const graph::FrameRecord& record, std::span<const f64> task_ms);
  /// Offline replay of a recorded frame: learns each task's simulated_ms.
  void observe(const graph::FrameRecord& record);

  /// Most likely scenario of the next frame given the last observed one.
  [[nodiscard]] graph::ScenarioId predict_scenario() const;

  /// Predictor of (node, context); creates it lazily from the node config.
  [[nodiscard]] TaskPredictor& task_predictor(i32 node, u32 context = 0);
  /// Existing predictor of (node, context); throws std::out_of_range when
  /// none exists (see contexts()).  Never creates one.
  [[nodiscard]] const TaskPredictor& task_predictor(i32 node,
                                                    u32 context = 0) const;
  /// Configuration of a node without instantiating a predictor (lint-safe:
  /// inspecting a broken config must not construct from it).
  [[nodiscard]] const PredictorConfig& task_config(i32 node) const {
    return configs_[static_cast<usize>(node)];
  }
  /// Context values for which a predictor currently exists (training or
  /// lazy creation), in ascending order.  Does not create predictors.
  [[nodiscard]] std::vector<u32> contexts(i32 node) const;
  [[nodiscard]] usize task_count() const { return configs_.size(); }
  [[nodiscard]] const graph::ScenarioTransitions& scenario_table() const {
    return scenario_transitions_;
  }

  /// Reset the online state of every predictor (start of a new sequence).
  void reset_online_state();

 private:
  [[nodiscard]] u32 context_of(const graph::FrameRecord* previous,
                               i32 node) const {
    return context_fn_ ? context_fn_(previous, node) : 0u;
  }
  /// Predictor of (node, context), or nullptr when none exists yet.
  [[nodiscard]] const TaskPredictor* find_task(i32 node, u32 context) const;

  std::vector<PredictorConfig> configs_;
  // (node, context) -> predictor, created lazily by the non-const accessor.
  std::vector<std::map<u32, TaskPredictor>> tasks_;
  ContextFn context_fn_;
  graph::ScenarioTransitions scenario_transitions_;
  std::optional<graph::FrameRecord> last_record_;
};

}  // namespace tc::model
