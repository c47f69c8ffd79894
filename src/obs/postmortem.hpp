// Post-mortem bundles: when a deadline is missed, an SLO breaks, or a
// human asks, freeze the evidence — recent flight-recorder events (merged,
// time-ordered across threads), a metrics snapshot, the active stripe plan,
// the QoS level and a predictor state summary — into one self-contained
// JSON file that tools/triplec_postmortem renders offline.
//
// The writer is deliberately boring: bundles are rate-limited (one per
// kMinFramesBetween frames, at most kMaxBundles per writer) so a
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
  /// Mean absolute percentage error of each drift window (name, pct).
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
  /// Flight-recorder events embedded per bundle (the most recent ones).
  static constexpr usize kMaxEvents = 2048;
  /// Frames between two bundles (rate limit; explicit requests ignore it).
  static constexpr i32 kMinFramesBetween = 32;
  /// Hard cap on bundles written by one writer.
  static constexpr u64 kMaxBundles = 16;

  /// Bundles go to `directory` (created on first write); an empty
  /// directory disables writing.
  explicit PostmortemWriter(std::string directory = {});

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
  [[nodiscard]] std::string last_path() const TC_EXCLUDES(mutex_);

 private:
  const std::string directory_;
  mutable common::Mutex mutex_;
  i64 last_bundle_frame_ TC_GUARDED_BY(mutex_) = -1;
  u64 bundles_written_ TC_GUARDED_BY(mutex_) = 0;
  u64 suppressed_ TC_GUARDED_BY(mutex_) = 0;
  std::string last_path_ TC_GUARDED_BY(mutex_);
};

}  // namespace tc::obs
