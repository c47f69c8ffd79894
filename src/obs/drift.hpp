// Prediction-drift and SLO monitoring.
//
// The paper's headline numbers are behavioral (~97 % average prediction
// accuracy, worst-vs-average latency gap cut to 20 %), which means the
// predictors have to be *watched*, not trusted: an online predictor whose
// input distribution shifts (scenario change, interference, corrupted
// Markov state) silently degrades until the executor starts missing
// deadlines.  This header provides
//
//   * change detectors — Page-Hinkley and two-sided CUSUM over a per-frame
//     error stream, plus a plain threshold on the smoothed error;
//   * DriftMonitor — named streams (e.g. the executor's "frame_latency"
//     and per-node "node:<name>") of predicted-vs-measured pairs, scored as
//     absolute percentage error, smoothed, fed to the detectors, and
//     mirrored into the MetricsRegistry; the executor counts and
//     flight-records alerts and writes post-mortems on them;
//   * SloMonitor — sliding-window service-level objectives (deadline-miss
//     rate, p99 latency, p99-p50 jitter) evaluated per frame with breach
//     callbacks and per-SLO cooldowns.
//
// Monitors are mutex-protected (they run once per frame on the control
// path, not inside kernels); the lock-free hot path is the flight
// recorder's job.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace tc::obs {

/// Page-Hinkley test for upward mean shifts in a stream: maintains the
/// running mean and the cumulative deviation m_t = sum(x_i - mean_i -
/// delta); alarms when m_t - min(m_t) exceeds lambda.
class PageHinkley {
 public:
  /// `delta` is the tolerated drift per sample (in stream units), `lambda`
  /// the detection threshold on the accumulated excess.
  explicit PageHinkley(f64 delta = 1.0, f64 lambda = 50.0)
      : delta_(delta), lambda_(lambda) {}

  /// Feed one sample; true when the alarm fires (state keeps accumulating —
  /// call reset() to re-arm).
  bool observe(f64 x);
  void reset();

  [[nodiscard]] f64 statistic() const { return m_ - min_m_; }
  [[nodiscard]] f64 lambda() const { return lambda_; }
  [[nodiscard]] u64 samples() const { return n_; }

 private:
  f64 delta_;
  f64 lambda_;
  f64 mean_ = 0.0;
  f64 m_ = 0.0;
  f64 min_m_ = 0.0;
  u64 n_ = 0;
};

/// Two-sided CUSUM around a reference level: g+ accumulates positive
/// excursions beyond `k`, g- negative ones; either exceeding `h` alarms.
class Cusum {
 public:
  /// `reference` is the expected stream level, `k` the slack per sample,
  /// `h` the alarm threshold.
  Cusum(f64 reference, f64 k, f64 h) : reference_(reference), k_(k), h_(h) {}

  bool observe(f64 x);
  void reset();

  [[nodiscard]] f64 positive() const { return g_pos_; }
  [[nodiscard]] f64 negative() const { return g_neg_; }
  [[nodiscard]] f64 threshold() const { return h_; }

 private:
  f64 reference_;
  f64 k_;
  f64 h_;
  f64 g_pos_ = 0.0;
  f64 g_neg_ = 0.0;
};

enum class DriftDetector { Threshold, PageHinkley, Cusum };

[[nodiscard]] const char* to_string(DriftDetector d);

struct DriftAlert {
  std::string stream;  ///< predictor stream name ("frame_latency", ...)
  DriftDetector detector = DriftDetector::Threshold;
  i32 frame = -1;
  /// Detector statistic and the threshold it crossed.
  f64 statistic = 0.0;
  f64 threshold = 0.0;
  /// Smoothed absolute percentage error of the stream at alert time.
  f64 smoothed_error_pct = 0.0;
};

struct DriftConfig {
  /// EWMA smoothing of the absolute-percentage-error stream.
  f64 error_alpha = 0.15;
  /// Hard ceiling on the smoothed error (paper baseline: ~3 % mean error;
  /// 35 % smoothed means the model is no longer describing the workload).
  f64 error_threshold_pct = 35.0;
  /// Page-Hinkley on the raw per-frame error stream (units: error pct).
  f64 ph_delta_pct = 2.0;
  f64 ph_lambda_pct = 120.0;
  /// CUSUM slack/threshold around the stream's warm-up error level.
  f64 cusum_k_pct = 5.0;
  f64 cusum_h_pct = 80.0;
  /// Frames before any detector may alarm (prime the baselines).
  i32 min_frames = 8;
  /// Per-stream frames between two alerts (detectors re-arm on alert).
  i32 cooldown_frames = 32;
};

/// Online per-predictor accuracy tracking with drift alarms.
class DriftMonitor {
 public:
  using Callback = std::function<void(const DriftAlert&)>;

  explicit DriftMonitor(DriftConfig config = {},
                        MetricsRegistry* metrics = nullptr);

  /// Alert sink (invoked inline from observe(); keep it cheap).
  void set_callback(Callback cb) TC_EXCLUDES(mutex_);

  /// Score one frame of `stream`: |predicted - measured| / measured.
  /// Returns the alert if one fired this frame (already delivered to the
  /// callback).  Frames with |measured| ~ 0 are skipped.
  std::optional<DriftAlert> observe(std::string_view stream, i32 frame,
                                    f64 predicted_ms, f64 measured_ms)
      TC_EXCLUDES(mutex_);

  [[nodiscard]] f64 smoothed_error_pct(std::string_view stream) const
      TC_EXCLUDES(mutex_);
  [[nodiscard]] u64 alerts_total() const TC_EXCLUDES(mutex_);
  /// Registration order index of a stream (-1 when unknown); this is the
  /// `node` payload of DriftAlert flight events.
  [[nodiscard]] i32 stream_index(std::string_view stream) const
      TC_EXCLUDES(mutex_);

  void reset() TC_EXCLUDES(mutex_);

 private:
  struct Stream {
    std::string name;
    f64 smoothed_error_pct = 0.0;
    bool primed = false;
    i64 frames = 0;
    i64 last_alert_frame = -1;
    PageHinkley ph;
    std::optional<Cusum> cusum;  ///< referenced to the warm-up error level
    f64 warmup_error_sum = 0.0;
    Stream(std::string n, const DriftConfig& c)
        : name(std::move(n)), ph(c.ph_delta_pct, c.ph_lambda_pct) {}
  };

  Stream& stream_of(std::string_view name) TC_REQUIRES(mutex_);

  DriftConfig config_;
  MetricsRegistry* metrics_;
  mutable common::Mutex mutex_;
  std::vector<std::unique_ptr<Stream>> streams_ TC_GUARDED_BY(mutex_);
  Callback callback_ TC_GUARDED_BY(mutex_);
  u64 alerts_total_ TC_GUARDED_BY(mutex_) = 0;
};

// ---------------------------------------------------------------------------

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

struct SloBreach {
  std::string slo;
  SloKind kind = SloKind::DeadlineMissRate;
  i32 frame = -1;
  f64 value = 0.0;
  f64 threshold = 0.0;
};

/// Sliding-window SLO evaluation; one instance watches one latency stream
/// (the executor's frame latencies).
class SloMonitor {
 public:
  using Callback = std::function<void(const SloBreach&)>;

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

  void set_callback(Callback cb) TC_EXCLUDES(mutex_);

  /// Feed one frame; returns the breaches that fired (already delivered to
  /// the callback).
  std::vector<SloBreach> observe_frame(i32 frame, f64 latency_ms,
                                       bool deadline_miss)
      TC_EXCLUDES(mutex_);

  /// Current value of an objective (0 before any frame).
  [[nodiscard]] f64 current(std::string_view slo) const TC_EXCLUDES(mutex_);
  /// Snapshot of the sliding-window aggregates (post-mortem context).
  [[nodiscard]] WindowStats window_snapshot() const TC_EXCLUDES(mutex_);

  /// One objective's spec together with its current value.
  struct ObjectiveStatus {
    SloSpec spec;
    f64 current = 0.0;
  };
  /// Everything the telemetry plane shows about this monitor, copied out
  /// under one short-lived lock: window aggregates, every objective's
  /// current value against its threshold, and the breach total.
  struct Snapshot {
    WindowStats window;
    std::vector<ObjectiveStatus> objectives;
    u64 breaches_total = 0;
    i64 frames_seen = 0;
  };
  [[nodiscard]] Snapshot snapshot() const TC_EXCLUDES(mutex_);
  [[nodiscard]] u64 breaches_total() const TC_EXCLUDES(mutex_);
  [[nodiscard]] const std::vector<SloSpec>& specs() const { return specs_; }

  void reset() TC_EXCLUDES(mutex_);

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
  Callback callback_ TC_GUARDED_BY(mutex_);
  u64 breaches_total_ TC_GUARDED_BY(mutex_) = 0;
};

}  // namespace tc::obs
