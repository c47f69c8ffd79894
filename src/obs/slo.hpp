// Service-level objectives over a sliding window of frame latencies.
//
// SloMonitor evaluates declarative objectives — deadline-miss rate, p99
// latency, p99-p50 jitter — once per frame with per-objective cooldowns;
// deadline_slos() builds the deadline-derived set every loop uses (the
// executor's, and the serving layer's per-stream and fleet monitors).
// Prediction drift is a rule on the ledger's calibration windows
// (obs::DriftRule, obs/ledger.hpp).
//
// Monitors are mutex-protected (they run once per frame on the control
// path, not inside kernels); the lock-free hot path is the flight
// recorder's job.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace tc::obs {

enum class SloKind {
  DeadlineMissRate,  ///< fraction of window frames past the deadline
  P99LatencyMs,      ///< p99 of the window's latencies
  JitterP99MinusP50Ms,  ///< p99 - p50 of the window's latencies
};

[[nodiscard]] const char* to_string(SloKind k);

struct SloSpec {
  std::string name;
  SloKind kind = SloKind::DeadlineMissRate;
  f64 threshold = 0.1;
  /// Sliding window (frames) the objective is evaluated over.
  i32 window = 64;
  /// Frames observed before the objective may breach.
  i32 min_frames = 16;
  /// Frames between two breaches of the same objective.
  i32 cooldown_frames = 64;
};

/// The deadline-derived objectives of one latency stream, named
/// `<prefix>deadline_miss_rate` (<= 0.25) and `<prefix>p99_latency_ms`
/// (<= 1.5 x deadline_ms), each over SloSpec's default window, warm-up and
/// cooldown.
[[nodiscard]] std::vector<SloSpec> deadline_slos(const std::string& prefix,
                                                 f64 deadline_ms);

struct SloBreach {
  std::string slo;
  SloKind kind = SloKind::DeadlineMissRate;
  i32 frame = -1;
  f64 value = 0.0;
  f64 threshold = 0.0;
};

/// Sliding-window SLO evaluation; one instance watches one latency stream
/// (the executor's frame latencies, or a serving stream's, or the fleet's).
class SloMonitor {
 public:
  /// Aggregates of the current sliding window (all 0 before any frame).
  struct WindowStats {
    f64 miss_rate = 0.0;
    f64 p50 = 0.0;
    f64 p99 = 0.0;
    /// Frames currently in the window (<= max spec window).
    i64 frames = 0;
  };

  explicit SloMonitor(std::vector<SloSpec> slos,
                      MetricsRegistry* metrics = nullptr);

  /// Feed one frame; returns the breaches that fired.
  std::vector<SloBreach> observe_frame(i32 frame, f64 latency_ms,
                                       bool deadline_miss)
      TC_EXCLUDES(mutex_);

  /// Snapshot of the sliding-window aggregates (post-mortem context).
  [[nodiscard]] WindowStats window_snapshot() const TC_EXCLUDES(mutex_);
  [[nodiscard]] u64 breaches_total() const TC_EXCLUDES(mutex_);

 private:
  [[nodiscard]] WindowStats window_stats() const TC_REQUIRES(mutex_);

  std::vector<SloSpec> specs_;
  MetricsRegistry* metrics_;
  mutable common::Mutex mutex_;
  /// Ring of the last max(window) frames: latency + miss flag.
  std::vector<std::pair<f64, bool>> window_ TC_GUARDED_BY(mutex_);
  usize window_capacity_ TC_GUARDED_BY(mutex_) = 0;
  usize window_next_ TC_GUARDED_BY(mutex_) = 0;
  i64 frames_seen_ TC_GUARDED_BY(mutex_) = 0;
  std::vector<i64> last_breach_frame_ TC_GUARDED_BY(mutex_);
  u64 breaches_total_ TC_GUARDED_BY(mutex_) = 0;
};

}  // namespace tc::obs
