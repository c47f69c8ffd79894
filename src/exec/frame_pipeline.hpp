// Frame pipeline: overlaps successive frames of the real StentBoost graph
// (hybrid functional + data partitioning, paper §6).
//
// The submitting thread admits each frame (on_admit, the StreamState ticket
// and the immutable snapshot of the cross-frame front state) and runs the
// analysis front (RDG..GW_EXT); one back thread runs the enhancement back
// end (ENH, ZOOM), retires the frame and calls on_retire.  While the back
// thread enhances frame t, the submitter already analyses frame t+1 — the
// app's StreamState tickets keep every cross-frame read/commit in frame
// order, so the records are byte-identical to a serial run (see tests/exec/
// test_frame_pipeline).
//
// submit() blocks while frames_in_flight frames sit between on_admit and
// on_retire, so the bound is exact: 1 runs frames one at a time, 2 overlaps
// the front of frame t+1 with the back of frame t.  Every frame runs to
// completion — dropping one mid-way would skip its StreamState commits and
// stall every later ticket — so QoS decisions belong to the caller (exec::
// Executor::run_pipelined marks late frames dropped after the fact).
//
// With obs on, each half of a frame records a stage_start/stage_end
// flight-event pair (node 0 = front, node 1 = back): the Chrome trace's
// "exec-stage" lanes.
#pragma once

#include <deque>
#include <functional>
#include <thread>

#include "app/stentboost.hpp"
#include "common/sync.hpp"

namespace tc::exec {

struct FramePipelineConfig {
  /// Frames between on_admit and on_retire at any time (>= 1).
  i32 frames_in_flight = 2;
  /// Called on the submitting thread immediately before frame admission —
  /// in frame order.  The hook is where a controller applies the stripe
  /// plan / instance budget snapshot for the coming frame.
  std::function<void(i32 frame)> on_admit;
  /// Called on the back thread immediately after retire_frame — in frame
  /// order, with the frame's final record.
  std::function<void(const graph::FrameRecord&)> on_retire;
};

class FramePipeline {
 public:
  FramePipeline(app::StentBoostApp& app, FramePipelineConfig config = {});
  /// Drains and joins (drain() if the caller did not).
  ~FramePipeline();

  FramePipeline(const FramePipeline&) = delete;
  FramePipeline& operator=(const FramePipeline&) = delete;

  /// Admit frame `t` of the app's synthetic sequence (rendered from the
  /// calling thread, in row bands on the pool per the frame's pool share)
  /// and run its front.  Blocks while frames_in_flight frames are in
  /// flight; frames must be submitted in increasing order.  False after
  /// drain().
  bool submit(i32 t);

  /// Admit an externally supplied frame (copied at admission).
  bool submit(i32 t, const img::ImageU16& image);

  /// Finish every in-flight frame and join the back thread.  Idempotent.
  void drain();

 private:
  /// Wait for room, then admit frame `t` and run its front (null `image` =
  /// render the synthetic frame).
  bool admit(i32 t, const img::ImageU16* image);
  void back_loop();

  app::StentBoostApp& app_;
  FramePipelineConfig config_;
  common::Mutex mutex_;
  common::CondVar cv_;
  /// Frames whose front finished, waiting for the back thread (frame order).
  std::deque<app::FrameContext*> fronted_ TC_GUARDED_BY(mutex_);
  /// Frames between on_admit and on_retire.
  i32 in_flight_ TC_GUARDED_BY(mutex_) = 0;
  bool closed_ TC_GUARDED_BY(mutex_) = false;
  std::thread back_;
};

}  // namespace tc::exec
