// Post-mortem bundles: when a deadline is missed, an SLO breaks, or a
// human asks, freeze the evidence — recent flight-recorder events (merged,
// time-ordered across threads), a metrics snapshot, the active stripe plan,
// the QoS level and a predictor state summary — into one self-contained
// JSON file that tools/triplec_postmortem renders offline.
//
// The writer is deliberately boring: bundles are rate-limited (one per
// `min_frames_between` frames, at most `max_bundles` per process) so a
// pathological run cannot fill the disk, and writing happens on the caller's
// thread (the executor's control path, between frames — never inside a
// kernel).
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "common/types.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"

namespace tc::obs {

struct PostmortemConfig {
  /// Bundle directory (created on first write).  Empty disables writing.
  std::string directory;
  /// Flight-recorder events embedded per bundle (most recent first in
  /// time-order; 0 = all live events).
  usize max_events = 2048;
  /// Frames between two bundles (rate limit; explicit requests ignore it).
  i32 min_frames_between = 32;
  /// Hard cap on bundles written by this writer.
  usize max_bundles = 16;
  /// Directory retention: after each write, prune the output directory to
  /// the `keep_latest` most recent bundles (0 = keep everything).  Applies
  /// to all `postmortem_*.json` files in the directory, including those of
  /// earlier runs, so a long-lived deployment directory stays bounded.
  usize keep_latest = 0;
};

/// Snapshot of the predictor at bundle time, filled by the layer that owns
/// it (the executor) so obs stays free of model dependencies.
struct PredictorStateSummary {
  /// One node of the coming frame's serial-equivalent forecast.
  struct NodeState {
    std::string name;
    f64 predicted_ms = 0.0;
    bool active = false;
  };
  std::vector<NodeState> nodes;
  /// Smoothed drift errors per monitored stream (name, error_pct).
  std::vector<std::pair<std::string, f64>> drift_errors_pct;
};

/// Everything the bundle records about the triggering frame.
struct PostmortemContext {
  /// "deadline_miss", "slo_breach:<name>", "drift:<stream>", "manual", ...
  std::string reason;
  i32 frame = -1;
  f64 deadline_ms = 0.0;
  f64 predicted_ms = 0.0;
  f64 measured_ms = 0.0;
  std::string plan;  ///< rt::plan_to_string of the active stripe plan
  i32 quality_level = 0;
  u32 scenario = 0;
  PredictorStateSummary predictors;
  /// Last-N prediction-ledger rows at bundle time (predicted vs. actual
  /// resource attribution of the frames leading up to the trigger).
  std::vector<LedgerRow> ledger_rows;
  /// Free-form extra fields ([key, value] pairs, emitted as strings).
  std::vector<std::pair<std::string, std::string>> extra;
};

/// Serialize one bundle document (no I/O; used by the writer and by tests).
[[nodiscard]] std::string bundle_json(const PostmortemContext& ctx,
                                      std::span<const FlightEvent> events,
                                      const MetricsRegistry& metrics);

class PostmortemWriter {
 public:
  explicit PostmortemWriter(PostmortemConfig config = {});

  /// Write a bundle for `ctx`, embedding a fresh flight-recorder snapshot
  /// and metrics dump.  Returns the bundle path, or "" when disabled,
  /// rate-limited, capped, or the write failed.  `force` bypasses the
  /// frame-rate limit (explicit requests), not the bundle cap.
  std::string write(const PostmortemContext& ctx,
                    const FlightRecorder& flight,
                    const MetricsRegistry& metrics, bool force = false)
      TC_EXCLUDES(mutex_);

  [[nodiscard]] u64 bundles_written() const TC_EXCLUDES(mutex_);
  [[nodiscard]] u64 suppressed() const TC_EXCLUDES(mutex_);
  /// Old bundle files deleted by the keep_latest retention policy.
  [[nodiscard]] u64 pruned() const TC_EXCLUDES(mutex_);
  [[nodiscard]] const PostmortemConfig& config() const { return config_; }
  [[nodiscard]] std::string last_path() const TC_EXCLUDES(mutex_);

 private:
  /// Delete the oldest postmortem_*.json files beyond keep_latest.
  void prune_directory() TC_REQUIRES(mutex_);

  PostmortemConfig config_;
  mutable common::Mutex mutex_;
  i64 last_bundle_frame_ TC_GUARDED_BY(mutex_) = -1;
  u64 bundles_written_ TC_GUARDED_BY(mutex_) = 0;
  u64 suppressed_ TC_GUARDED_BY(mutex_) = 0;
  u64 pruned_ TC_GUARDED_BY(mutex_) = 0;
  std::string last_path_ TC_GUARDED_BY(mutex_);
};

}  // namespace tc::obs
