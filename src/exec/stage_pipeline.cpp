#include "exec/stage_pipeline.hpp"

#include <cassert>
#include <utility>

#include "obs/obs.hpp"

namespace tc::exec {

void parallel_rows(const StageContext& ctx, i32 rows,
                   const std::function<void(IndexRange)>& fn) {
  if (ctx.pool == nullptr || ctx.stripes <= 1 || rows <= 1) {
    fn(IndexRange{0, rows});
    return;
  }
  ctx.pool->parallel_ranges(rows, ctx.stripes,
                            [&fn](i32 /*chunk*/, IndexRange r) { fn(r); });
}

StagePipeline::StagePipeline(std::vector<StageSpec> stages,
                             PipelineConfig config)
    : stages_(std::move(stages)), config_(std::move(config)) {
  assert(!stages_.empty() && "pipeline needs at least one stage");
  queues_.reserve(stages_.size());
  for (usize i = 0; i < stages_.size(); ++i) {
    queues_.push_back(
        std::make_unique<BoundedQueue<FramePacket>>(config_.queue_capacity));
    // Flight-recorder channel i = the queue feeding stage i.
    queues_.back()->set_flight_channel(narrow<i32>(i));
  }
}

StagePipeline::~StagePipeline() { drain(); }

void StagePipeline::start() {
  if (started_) return;
  started_ = true;
  epoch_.restart();
  threads_.reserve(stages_.size());
  for (usize i = 0; i < stages_.size(); ++i) {
    threads_.emplace_back([this, i] { stage_loop(i); });
  }
}

bool StagePipeline::submit(i32 frame, std::shared_ptr<void> payload) {
  assert(started_ && "submit() before start()");
  FramePacket packet;
  packet.frame = frame;
  packet.admitted_us = epoch_.elapsed_us();
  packet.deadline_ms = config_.deadline_ms;
  packet.payload = std::move(payload);
  if (first_submit_us_ < 0.0) first_submit_us_ = packet.admitted_us;
  if (!queues_.front()->push(std::move(packet))) return false;
  ++frames_in_;
  return true;
}

void StagePipeline::drain() {
  if (!started_ || drained_) return;
  drained_ = true;
  queues_.front()->close();
  // Join in pipeline order: stage i exits only after it drained its input
  // and closed stage i+1's queue, so downstream threads always terminate.
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void StagePipeline::stage_loop(usize stage_index) {
  StageSpec& stage = stages_[stage_index];
  const bool last = stage_index + 1 == stages_.size();
  BoundedQueue<FramePacket>& in = *queues_[stage_index];

  const StageContext ctx{stage.stripes, config_.stripe_pool};
  while (auto packet = in.pop()) {
    FramePacket& p = *packet;
    // Deadline check on entry to the stage: a frame that is already older
    // than its deadline gets the QoS policy applied before more work is
    // spent on it.
    const f64 age_ms = (epoch_.elapsed_us() - p.admitted_us) / 1000.0;
    const bool late = p.deadline_ms > 0.0 && age_ms > p.deadline_ms;
    if (late) {
      switch (config_.policy) {
        case DeadlinePolicy::Drop:
          p.dropped = true;
          break;
        case DeadlinePolicy::Degrade:
          p.degraded = true;
          break;
        case DeadlinePolicy::Run:
          break;
      }
    }
    if (!p.dropped) {
      if (obs::enabled()) {
        obs::FlightRecorder& flight = obs::global().flight;
        const i32 stage_id = narrow<i32>(stage_index);
        flight.record(obs::FrEventType::StageStart, p.frame, stage_id);
        const f64 start_us = epoch_.elapsed_us();
        stage.work(p, ctx);
        flight.record(obs::FrEventType::StageEnd, p.frame, stage_id,
                      (epoch_.elapsed_us() - start_us) / 1000.0);
      } else {
        stage.work(p, ctx);
      }
    }
    if (last) {
      CompletedFrame done;
      done.frame = p.frame;
      const f64 done_us = epoch_.elapsed_us();
      done.latency_ms = (done_us - p.admitted_us) / 1000.0;
      done.dropped = p.dropped;
      done.degraded = p.degraded;
      done.deadline_miss =
          p.deadline_ms > 0.0 && done.latency_ms > p.deadline_ms;
      if (obs::enabled()) {
        auto& m = obs::global().metrics;
        m.histogram("tripleC_exec_pipeline_latency_ms",
                    "Admission-to-completion host latency per frame",
                    obs::latency_buckets_ms())
            .record(done.latency_ms);
        if (done.dropped) {
          m.counter("tripleC_exec_pipeline_dropped_total",
                    "Frames dropped by the deadline policy")
              .add();
        }
        if (done.deadline_miss) {
          m.counter("tripleC_exec_pipeline_deadline_miss_total",
                    "Frames completed after their deadline")
              .add();
        }
      }
      common::MutexLock lock(stats_mutex_);
      completed_.push_back(done);
      if (done_us > last_done_us_) last_done_us_ = done_us;
    } else {
      queues_[stage_index + 1]->push(std::move(p));
    }
  }
  // End of stream: propagate the close downstream.
  if (!last) queues_[stage_index + 1]->close();
}

PipelineStats StagePipeline::stats() const {
  PipelineStats s;
  s.frames_in = frames_in_;
  {
    common::MutexLock lock(stats_mutex_);
    s.frames = completed_;
    const f64 start_us = first_submit_us_ < 0.0 ? 0.0 : first_submit_us_;
    if (last_done_us_ > start_us) s.wall_ms = (last_done_us_ - start_us) / 1000.0;
  }
  for (const CompletedFrame& f : s.frames) {
    ++s.frames_out;
    if (f.dropped) ++s.frames_dropped;
    if (f.degraded) ++s.frames_degraded;
    if (f.deadline_miss) ++s.deadline_misses;
  }
  if (s.wall_ms > 0.0) s.throughput_fps = 1000.0 * s.frames_out / s.wall_ms;
  for (const auto& q : queues_) s.backpressure_events += q->blocked_pushes();
  return s;
}

}  // namespace tc::exec
