// Hand-made warm-start snapshots for the serving tests: a predictor that
// learnt one frame of scenario "RDG on, no ROI, registration failed" with
// the given per-node times, so its forecast prices exactly those nodes.
#pragma once

#include <initializer_list>
#include <utility>

#include "exec/executor.hpp"

namespace tc::serve {

inline exec::PredictorSnapshot learnt_snapshot(
    u64 trained_frames, std::initializer_list<std::pair<i32, f64>> node_ms) {
  exec::PredictorSnapshot snap;
  snap.trained_frames = trained_frames;
  graph::FrameRecord record;
  record.scenario = 1u << app::kSwRdg;
  for (const auto& [node, ms] : node_ms) {
    graph::TaskExecution exec;
    exec.node = node;
    exec.executed = true;
    exec.simulated_ms = ms;
    record.tasks.push_back(exec);
  }
  snap.predictor.observe(record);
  return snap;
}

}  // namespace tc::serve
