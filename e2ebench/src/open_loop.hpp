// Open-loop arrival clock for one stream.
//
// Frame i is due at start + i * period whatever happened to earlier frames
// (a camera does not wait for the display).  The clock starts frame i at
// max(due, end of frame i-1) and times it from its due time, so a stall is
// charged to every frame queued behind it — no coordinated omission.
#pragma once

#include <chrono>
#include <thread>
#include <vector>

namespace tcbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct FrameTiming {
  double due_ms = 0.0;    ///< arrival time, relative to the clock start
  double start_ms = 0.0;  ///< when the step call began
  double end_ms = 0.0;    ///< when the step call returned (display time)

  [[nodiscard]] double latency_ms() const { return end_ms - due_ms; }
  [[nodiscard]] double queue_wait_ms() const { return start_ms - due_ms; }
  [[nodiscard]] double step_ms() const { return end_ms - start_ms; }
};

struct OpenLoopResult {
  std::vector<FrameTiming> frames;
  /// Largest delay between the moment a frame could start (due and the
  /// previous frame done) and the moment it did: how late the generator
  /// itself ran.
  double max_generator_lag_ms = 0.0;
};

/// Offer `frames` frames at a fixed `period_ms`, calling step(i) for each.
/// period_ms <= 0 runs a closed loop: each frame is due when the previous
/// one is displayed.
template <typename Step>
OpenLoopResult run_open_loop(int frames, double period_ms, Step&& step) {
  OpenLoopResult out;
  out.frames.reserve(static_cast<std::size_t>(frames));
  const Clock::time_point t0 = Clock::now();
  const auto period = std::chrono::duration<double, std::milli>(period_ms);
  double prev_end_ms = 0.0;
  for (int i = 0; i < frames; ++i) {
    const auto due =
        period_ms <= 0.0
            ? Clock::now()
            : t0 + std::chrono::duration_cast<Clock::duration>(period * i);
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    FrameTiming ft;
    ft.due_ms = ms_between(t0, due);
    ft.start_ms = ms_between(t0, Clock::now());
    step(i);
    ft.end_ms = ms_between(t0, Clock::now());
    const double ready_ms = ft.due_ms > prev_end_ms ? ft.due_ms : prev_end_ms;
    if (ft.start_ms - ready_ms > out.max_generator_lag_ms) {
      out.max_generator_lag_ms = ft.start_ms - ready_ms;
    }
    prev_end_ms = ft.end_ms;
    out.frames.push_back(ft);
  }
  return out;
}

}  // namespace tcbench
