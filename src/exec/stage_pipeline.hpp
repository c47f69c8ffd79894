// Functional-parallel stage pipeline: the host execution engine for
// function-partitioned flow graphs (paper §6, runtime/pipeline_schedule is
// the analytical model of the same mapping).
//
// Each stage owns one dedicated worker thread (per-stage worker assignment)
// and receives frames from a bounded inter-task queue (default capacity 2 —
// double buffering with backpressure: a full queue throttles the upstream
// stage instead of growing without bound).  While stage 2 processes frame t,
// stage 1 already works on frame t+1, so sustained throughput is set by the
// bottleneck stage, not by the frame latency.
//
// Data-parallel stages additionally stripe their row loops over a shared
// plat::ThreadPool (hybrid functional + data partitioning); parallel_rows()
// is the helper stage bodies use for that.
//
// Deadline QoS: every admitted frame carries its admission timestamp and the
// pipeline deadline.  A stage that receives a frame whose age already
// exceeds the deadline applies the DeadlinePolicy (drop = skip the remaining
// stage work, degrade = set the degraded flag stage bodies may consult,
// run = finish regardless); late frames are counted either way.
//
// Observability: when obs::enabled(), every stage execution records a
// stage_start/stage_end flight-event pair (the stage_end is the Chrome
// trace's "exec-stage" span) and the pipeline maintains
// tripleC_exec_pipeline_* metrics, so the trace shows the real host-side
// pipeline overlap next to the simulated timeline.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/bounded_queue.hpp"
#include "exec/deadline.hpp"
#include "obs/scoped_timer.hpp"
#include "platform/thread_pool.hpp"

namespace tc::exec {

/// One frame travelling through the pipeline.  `payload` carries the
/// application's working buffers (stage bodies know the concrete type).
struct FramePacket {
  i32 frame = -1;
  /// Host time (pipeline epoch) at which the frame was admitted.
  f64 admitted_us = 0.0;
  /// Deadline for this frame (copied from the pipeline config; 0 = none).
  f64 deadline_ms = 0.0;
  /// Set by the deadline policy: the frame is late and its remaining stage
  /// work is skipped (Drop) ...
  bool dropped = false;
  /// ... or should be computed at reduced quality (Degrade).
  bool degraded = false;
  std::shared_ptr<void> payload;
};

/// Execution context a stage body receives: how many stripes to use and the
/// shared pool to stripe on (null = run serial regardless of stripes).
struct StageContext {
  i32 stripes = 1;
  plat::ThreadPool* pool = nullptr;
};

/// Stripe a row loop over the context's pool: fn is called once per
/// contiguous row band (plat::even_chunk); bands are disjoint, so output
/// rows are written bit-identically to a serial run.
void parallel_rows(const StageContext& ctx, i32 rows,
                   const std::function<void(IndexRange)>& fn);

struct StageSpec {
  std::string name;
  /// Stage body.  Must only touch its packet's payload (plus immutable
  /// config) — stages run concurrently on different frames.
  std::function<void(FramePacket&, const StageContext&)> work;
  /// >1 stripes the stage's parallel_rows loops over the shared pool.
  i32 stripes = 1;
};

struct PipelineConfig {
  /// Capacity of every inter-stage queue (>= 1; 2 = double buffering).
  usize queue_capacity = 2;
  /// Per-frame deadline in host ms (0 = no deadline).
  f64 deadline_ms = 0.0;
  DeadlinePolicy policy = DeadlinePolicy::Run;
  /// Shared pool for data-parallel stages (may be null: stages run serial).
  plat::ThreadPool* stripe_pool = nullptr;
};

/// Completion record of one frame (in output order).
struct CompletedFrame {
  i32 frame = -1;
  /// Admission-to-completion host latency.
  f64 latency_ms = 0.0;
  bool dropped = false;
  bool degraded = false;
  bool deadline_miss = false;
};

struct PipelineStats {
  i32 frames_in = 0;
  i32 frames_out = 0;
  i32 frames_dropped = 0;
  i32 frames_degraded = 0;
  i32 deadline_misses = 0;
  /// submit()..drain() wall time and the resulting sustained throughput.
  f64 wall_ms = 0.0;
  f64 throughput_fps = 0.0;
  /// Backpressure events (blocked pushes) summed over all queues.
  u64 backpressure_events = 0;
  std::vector<CompletedFrame> frames;
};

class StagePipeline {
 public:
  StagePipeline(std::vector<StageSpec> stages, PipelineConfig config);
  /// Joins all stage threads (drain() if the caller did not).
  ~StagePipeline();

  StagePipeline(const StagePipeline&) = delete;
  StagePipeline& operator=(const StagePipeline&) = delete;

  /// Launch the stage threads.  Must be called before submit().
  void start();

  /// Admit one frame (stamps the admission time).  Blocks while the first
  /// queue is full (backpressure); returns false after drain()/close.
  bool submit(i32 frame, std::shared_ptr<void> payload);

  /// Close the input, let every stage drain, and join the stage threads in
  /// pipeline order.  Idempotent; stats() is complete afterwards.
  void drain();

  [[nodiscard]] usize stage_count() const { return stages_.size(); }

  /// Snapshot of the accounting (stable after drain()).
  [[nodiscard]] PipelineStats stats() const;

 private:
  void stage_loop(usize stage_index);

  std::vector<StageSpec> stages_;
  PipelineConfig config_;
  /// queues_[i] feeds stage i.
  std::vector<std::unique_ptr<BoundedQueue<FramePacket>>> queues_;
  std::vector<std::thread> threads_;
  bool started_ = false;
  bool drained_ = false;
  obs::ScopedTimer epoch_;
  f64 first_submit_us_ = -1.0;
  i32 frames_in_ = 0;

  mutable common::Mutex stats_mutex_;
  std::vector<CompletedFrame> completed_ TC_GUARDED_BY(stats_mutex_);
  f64 last_done_us_ TC_GUARDED_BY(stats_mutex_) = 0.0;
};

}  // namespace tc::exec
