#include "tripleC/graph_predictor.hpp"

#include <cmath>

#include "common/stats.hpp"
#include "obs/obs.hpp"

namespace tc::model {

GraphPredictor::GraphPredictor(usize task_count, usize switch_count)
    : configs_(task_count),
      tasks_(task_count),
      scenario_transitions_(switch_count) {}

void GraphPredictor::configure_task(i32 node, PredictorConfig config) {
  configs_[static_cast<usize>(node)] = config;
  tasks_[static_cast<usize>(node)].clear();
}

TaskPredictor& GraphPredictor::task_predictor(i32 node, u32 context) {
  auto& per_node = tasks_[static_cast<usize>(node)];
  auto it = per_node.find(context);
  if (it == per_node.end()) {
    it = per_node.emplace(context,
                          TaskPredictor(configs_[static_cast<usize>(node)]))
             .first;
  }
  return it->second;
}

const TaskPredictor& GraphPredictor::task_predictor(i32 node,
                                                    u32 context) const {
  return tasks_[static_cast<usize>(node)].at(context);
}

const TaskPredictor* GraphPredictor::find_task(i32 node, u32 context) const {
  const auto& per_node = tasks_[static_cast<usize>(node)];
  const auto it = per_node.find(context);
  return it == per_node.end() ? nullptr : &it->second;
}

std::vector<u32> GraphPredictor::contexts(i32 node) const {
  std::vector<u32> out;
  const auto& per_node = tasks_[static_cast<usize>(node)];
  out.reserve(per_node.size());
  for (const auto& [ctx, predictor] : per_node) out.push_back(ctx);
  return out;
}

void GraphPredictor::train(
    std::span<const std::vector<graph::FrameRecord>> sequences) {
  const usize n = configs_.size();
  // Per (node, context): one TrainingSample sequence per recorded sequence.
  std::vector<std::map<u32, std::vector<std::vector<TrainingSample>>>> samples(
      n);
  for (const auto& seq : sequences) {
    for (usize node = 0; node < n; ++node) {
      for (auto& [ctx, seqs] : samples[node]) seqs.emplace_back();
    }
    const graph::FrameRecord* prev = nullptr;
    for (const graph::FrameRecord& record : seq) {
      if (prev != nullptr) {
        scenario_transitions_.add(prev->scenario, record.scenario);
      }
      for (const graph::TaskExecution& exec : record.tasks) {
        if (!exec.executed) continue;
        u32 ctx = context_of(prev, exec.node);
        auto& ctx_seqs = samples[static_cast<usize>(exec.node)][ctx];
        if (ctx_seqs.empty()) ctx_seqs.emplace_back();
        ctx_seqs.back().push_back(
            TrainingSample{exec.simulated_ms, record.roi_pixels});
      }
      prev = &record;
    }
  }
  for (usize node = 0; node < n; ++node) {
    for (auto& [ctx, seqs] : samples[node]) {
      std::vector<std::vector<TrainingSample>> nonempty;
      for (auto& s : seqs) {
        if (!s.empty()) nonempty.push_back(std::move(s));
      }
      if (!nonempty.empty()) {
        task_predictor(narrow<i32>(node), ctx).train(nonempty);
      }
    }
  }
  last_record_.reset();
}

f64 GraphPredictor::predict_task(i32 node, f64 roi_pixels) const {
  const graph::FrameRecord* prev =
      last_record_.has_value() ? &*last_record_ : nullptr;
  u32 ctx = context_of(prev, node);
  const TaskPredictor* p = find_task(node, ctx);
  if (p == nullptr || !p->trained()) {
    // Fall back to the default-context predictor when this context was never
    // seen in training; a node that never ran predicts 0 ms.
    p = find_task(node, 0);
  }
  return p != nullptr ? p->predict(roi_pixels) : 0.0;
}

bool GraphPredictor::trained() const {
  for (const auto& per_node : tasks_) {
    for (const auto& [ctx, p] : per_node) {
      if (p.trained()) return true;
    }
  }
  return false;
}

void GraphPredictor::observe(const graph::FrameRecord& record) {
  std::vector<f64> task_ms(configs_.size(), 0.0);
  for (const graph::TaskExecution& exec : record.tasks) {
    if (exec.executed) task_ms[static_cast<usize>(exec.node)] = exec.simulated_ms;
  }
  observe(record, task_ms);
}

void GraphPredictor::observe(const graph::FrameRecord& record,
                             std::span<const f64> task_ms) {
  const graph::FrameRecord* prev =
      last_record_.has_value() ? &*last_record_ : nullptr;
  if (prev != nullptr) {
    scenario_transitions_.add(prev->scenario, record.scenario);
    if (obs::enabled() && record.scenario != prev->scenario) {
      obs::global().flight.record(obs::FrEventType::ScenarioSwitch,
                                  record.frame, -1,
                                  static_cast<f64>(record.scenario),
                                  static_cast<f64>(prev->scenario));
    }
  }
  for (const graph::TaskExecution& exec : record.tasks) {
    if (!exec.executed) continue;
    const f64 measured_ms = task_ms[static_cast<usize>(exec.node)];
    u32 ctx = context_of(prev, exec.node);
    if (obs::enabled()) {
      // Attribute the prediction this task would have been given (the same
      // context/fallback rule as predict_task, evaluated before the observe
      // below advances the online state) to its EWMA/linear baseline and
      // Markov residual, and score it against the measurement.
      const TaskPredictor& configured = task_predictor(exec.node, ctx);
      const TaskPredictor& p =
          configured.trained() ? configured : task_predictor(exec.node, 0);
      const TaskPredictor::PredictionBreakdown parts =
          p.predict_breakdown(record.roi_pixels);
      obs::MetricsRegistry& m = obs::global().metrics;
      m.counter("tripleC_prediction_component_abs_ms_total",
                "Cumulative |contribution| of each predictor component",
                obs::label("component", "baseline"))
          .add(std::fabs(parts.baseline_ms));
      m.counter("tripleC_prediction_component_abs_ms_total",
                "Cumulative |contribution| of each predictor component",
                obs::label("component", "markov"))
          .add(std::fabs(parts.markov_ms));
      m.counter("tripleC_prediction_component_abs_ms_total",
                "Cumulative |contribution| of each predictor component",
                obs::label("component", "combined"))
          .add(std::fabs(parts.combined_ms()));
      obs::global().flight.record(obs::FrEventType::NodeTiming, record.frame,
                                  exec.node, parts.combined_ms(), measured_ms);
      if (const std::optional<f64> err =
              relative_error_pct(parts.combined_ms(), measured_ms)) {
        m.histogram(
             "tripleC_task_prediction_error_pct",
             "Per-task |predicted - measured| / measured in percent",
             obs::error_pct_buckets(),
             obs::label("task", obs::global().node_name(exec.node)))
            .record(std::fabs(*err));
      }
    }
    task_predictor(exec.node, ctx).observe(measured_ms, record.roi_pixels);
  }
  last_record_ = record;
}

graph::ScenarioId GraphPredictor::predict_scenario() const {
  if (!last_record_.has_value()) return 0;
  return scenario_transitions_.most_likely_next(last_record_->scenario);
}

void GraphPredictor::reset_online_state() {
  for (auto& per_node : tasks_) {
    for (auto& [ctx, p] : per_node) p.reset_online_state();
  }
  last_record_.reset();
}

}  // namespace tc::model
