#include "exec/frame_pipeline.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "obs/scoped_timer.hpp"

namespace tc::exec {

namespace {

/// Run one half of `frame` (0 = front, 1 = back); with obs on, bracket it
/// with a stage_start/stage_end pair carrying the half's wall ms.
template <class Fn>
void run_half(i32 half, i32 frame, Fn&& fn) {
  if (!obs::enabled()) {
    fn();
    return;
  }
  obs::FlightRecorder& flight = obs::global().flight;
  flight.record(obs::FrEventType::StageStart, frame, half);
  const obs::ScopedTimer timer;
  fn();
  flight.record(obs::FrEventType::StageEnd, frame, half, timer.elapsed_ms());
}

}  // namespace

FramePipeline::FramePipeline(app::StentBoostApp& app,
                             FramePipelineConfig config)
    : app_(app), config_(std::move(config)) {
  config_.frames_in_flight = std::max(1, config_.frames_in_flight);
  back_ = std::thread([this] { back_loop(); });
}

FramePipeline::~FramePipeline() { drain(); }

bool FramePipeline::submit(i32 t) { return admit(t, nullptr); }

bool FramePipeline::submit(i32 t, const img::ImageU16& image) {
  return admit(t, &image);
}

void FramePipeline::drain() {
  {
    common::MutexLock lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
  if (back_.joinable()) back_.join();
}

bool FramePipeline::admit(i32 t, const img::ImageU16* image) {
  {
    common::MutexLock lock(mutex_);
    cv_.wait(mutex_, [this]() TC_REQUIRES(mutex_) {
      return closed_ || in_flight_ < config_.frames_in_flight;
    });
    if (closed_) return false;
    ++in_flight_;
  }
  app::FrameContext* ctx = nullptr;
  run_half(0, t, [&] {
    if (config_.on_admit) config_.on_admit(t);
    ctx = image != nullptr ? app_.admit_image(t, *image) : app_.admit_frame(t);
    app_.run_front(*ctx);
  });
  {
    common::MutexLock lock(mutex_);
    fronted_.push_back(ctx);
  }
  cv_.notify_all();
  return true;
}

void FramePipeline::back_loop() {
  for (;;) {
    app::FrameContext* ctx = nullptr;
    {
      common::MutexLock lock(mutex_);
      cv_.wait(mutex_, [this]() TC_REQUIRES(mutex_) {
        return closed_ || !fronted_.empty();
      });
      if (fronted_.empty()) return;  // closed, and every frame retired
      ctx = fronted_.front();
      fronted_.pop_front();
    }
    // retire_frame recycles the context: read the frame number first.
    run_half(1, ctx->frame, [&] {
      app_.run_back(*ctx);
      const graph::FrameRecord record = app_.retire_frame(*ctx);
      if (config_.on_retire) config_.on_retire(record);
    });
    {
      common::MutexLock lock(mutex_);
      --in_flight_;
    }
    cv_.notify_all();
  }
}

}  // namespace tc::exec
