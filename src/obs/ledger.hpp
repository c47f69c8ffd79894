// Prediction ledger: per-frame predicted-vs-actual resource attribution.
//
// The paper's premise is that Triple-C's resource-usage predictions are
// accurate enough to drive partitioning — which makes the predictions
// themselves a first-class observable.  The ledger records one row per
// (frame, node) confronting the predicted CPU time, memory footprint and
// per-bus bandwidth (cache / memory / I/O split, Fig. 4) with the measured
// actuals, together with the scenario, the chosen stripe plan, the stream
// ticket and the frame's deadline slack.
//
// Rows are written in two halves mirroring the executor's frame lifecycle:
// predict_frame() at plan time (admission order) stores the predictions,
// settle_frame() at retire time (retire order) fills in the actuals, feeds
// the calibration streams and appends the settled rows to a bounded ring.
// On top of the rows, *calibration streams* — one rolling window per
// (node, resource) and per (scenario, resource) — track bias (mean signed
// percentage error), mean/P50/P95 absolute percentage error and under/over-
// prediction coverage; DriftRule turns a window's mean error into the
// loop's drift signal.  Stream aggregates are mirrored into the
// MetricsRegistry and, when tracing is on, emitted as Chrome counter tracks
// with the predicted and actual series overlaid per node.
//
// The ledger is thread-safe (one mutex; it runs on the executor's control
// path once per frame, never inside kernels) and allocation-light: rows are
// PODs, windows are fixed rings.  dump_json() serializes the retained rows
// as a self-contained "triplec-ledger-v1" document that
// tools/triplec_ledger renders into a calibration report offline.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace tc::obs {

/// Resources the ledger attributes per (frame, node).  The three bus
/// classes mirror the Fig. 4 platform model (cache / memory / I/O bus);
/// bus values are megabytes moved per frame on that bus.
enum class LedgerResource : i32 {
  CpuMs = 0,     ///< task host time, milliseconds
  MemBytes,      ///< buffer footprint (input + intermediate + output), bytes
  CacheBusMb,    ///< cache-bus traffic, MB per frame
  MemoryBusMb,   ///< memory-bus traffic, MB per frame
  IoBusMb,       ///< I/O-bus traffic (device in/out), MB per frame
};
inline constexpr i32 kLedgerResourceCount = 5;

[[nodiscard]] const char* to_string(LedgerResource r);
/// Inverse of to_string (nullopt for unknown names).
[[nodiscard]] std::optional<LedgerResource> ledger_resource_from(
    std::string_view name);

using LedgerValues = std::array<f64, kLedgerResourceCount>;

/// Bit of resource `r` in a row's pred/meas validity masks.
[[nodiscard]] constexpr u32 ledger_bit(LedgerResource r) {
  return u32{1} << static_cast<u32>(r);
}
inline constexpr u32 kLedgerAllResources =
    (u32{1} << kLedgerResourceCount) - 1;

/// One node's predicted or measured values for one frame; bits of `mask`
/// select which entries of `values` are meaningful.
struct LedgerSample {
  i32 node = -1;
  u32 mask = 0;
  LedgerValues values{};
};

/// One settled ledger row: everything known about (frame, node).
struct LedgerRow {
  i32 frame = -1;
  i32 node = -1;
  /// Serving-stream id the row belongs to (LedgerConfig::stream_id;
  /// -1 = single-stream executor, no serving layer involved).
  i32 stream = -1;
  u32 scenario = 0;
  /// Stream admission ticket of the frame (frame order under pipelining).
  i64 ticket = -1;
  /// Stripe count of this node in the chosen plan (1 = serial).
  i32 stripes = 1;
  f64 deadline_ms = 0.0;
  /// deadline - measured frame latency (0 when no deadline was active).
  f64 deadline_slack_ms = 0.0;
  u32 pred_mask = 0;
  u32 meas_mask = 0;
  LedgerValues pred{};
  LedgerValues meas{};

  [[nodiscard]] bool has_pred(LedgerResource r) const {
    return (pred_mask & ledger_bit(r)) != 0;
  }
  [[nodiscard]] bool has_meas(LedgerResource r) const {
    return (meas_mask & ledger_bit(r)) != 0;
  }
  /// Signed percentage error (tc::relative_error_pct of pred vs. meas);
  /// nullopt when either side is missing or the measurement is ~0.
  [[nodiscard]] std::optional<f64> error_pct(LedgerResource r) const;
};

/// One row as a compact JSON object — the one writer behind the
/// triplec-ledger-v1 dump, the /ledger endpoint and post-mortem bundles.
/// Numbers use common::json_number, so a reader recovers them exactly.
[[nodiscard]] std::string ledger_row_json(const LedgerRow& row);

/// Rolling window of signed percentage errors with percentile extraction —
/// the calibration-stream primitive.  Capacity 0 keeps every sample
/// (offline report building); capacity N keeps the most recent N
/// (wraparound ring for the online streams).
class CalibrationWindow {
 public:
  explicit CalibrationWindow(usize capacity = 128) : capacity_(capacity) {}

  void add(f64 signed_error_pct);

  struct Stats {
    u64 samples = 0;      ///< samples currently in the window
    u64 total = 0;        ///< samples ever added (incl. evicted)
    f64 bias_pct = 0.0;   ///< mean signed error (positive = over-predicts)
    f64 mean_ape_pct = 0.0;  ///< mean absolute percentage error
    f64 p50_ape_pct = 0.0;  ///< median absolute percentage error
    f64 p95_ape_pct = 0.0;
    /// Fraction of window samples under- (pred < meas) / over-predicted.
    f64 under_pct = 0.0;
    f64 over_pct = 0.0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] usize capacity() const { return capacity_; }
  [[nodiscard]] usize size() const { return ring_.size(); }
  void clear();

 private:
  usize capacity_;
  std::vector<f64> ring_;
  usize next_ = 0;  ///< overwrite cursor once the ring is full
  u64 total_ = 0;
};

/// Prediction drift as a threshold on a calibration window: the forecasts
/// stop describing the workload when the window's mean absolute percentage
/// error exceeds kThresholdPct.  The mean, not the median: a 3x mis-scale
/// (200 % error) over a ~10 % baseline lifts the mean of a full 64-sample
/// window past 35 % after 9 samples, while its median moves only after 33.
class DriftRule {
 public:
  static constexpr f64 kThresholdPct = 35.0;
  /// Samples the window needs before the rule may fire.
  static constexpr u64 kMinSamples = 8;

  /// True once per excursion: when `s` first exceeds the threshold with at
  /// least kMinSamples samples.  The rule re-arms once the mean is back at
  /// or below the threshold.
  bool crossed(const CalibrationWindow::Stats& s);

 private:
  bool drifting_ = false;
};

struct LedgerConfig {
  /// Master switch read by the integration layers (exec::Executor, the
  /// GraphPredictor); the ledger object itself is always live once built.
  bool enabled = false;
  /// Settled rows retained (ring; oldest evicted).  0 keeps everything.
  usize capacity = 4096;
  /// Mirror stream aggregates into the MetricsRegistry passed at build.
  bool export_metrics = true;
  /// Record per-node predicted/actual CPU samples (ledger_cpu flight
  /// events, the Chrome counter tracks) in the global flight recorder
  /// (only when obs::enabled()).
  bool trace_counters = true;
  /// Serving-stream id stamped on every row (serve::StreamServer gives each
  /// stream its own ledger); -1 = untagged single-stream operation.
  i32 stream_id = -1;
  /// Node display names for metrics labels and dumps ("node<i>" default).
  std::function<std::string(i32)> node_name;
};

class PredictionLedger {
 public:
  /// Calibration window per (node|scenario, resource) stream.
  static constexpr usize kCalibrationWindow = 128;
  /// Open (predicted, not yet settled) frames retained; beyond this the
  /// oldest pending frame is dropped as lost (counted, never blocks).
  static constexpr usize kMaxOpenFrames = 16;

  explicit PredictionLedger(LedgerConfig config = {},
                            MetricsRegistry* metrics = nullptr);

  /// Record the predictions for frame `frame` (called at plan/admission
  /// time, frame order).  `stripes` is indexed by node id (empty = all
  /// serial); `deadline_ms` <= 0 means no deadline active yet.
  void predict_frame(i32 frame, i64 ticket, f64 deadline_ms,
                     std::span<const i32> stripes,
                     std::span<const LedgerSample> predictions)
      TC_EXCLUDES(mutex_);

  /// Record the actuals for frame `frame` (retire order), match them with
  /// the pending predictions, feed the calibration streams, update metrics
  /// and counter tracks.  Actual-only nodes (executed but never predicted)
  /// get rows with an empty pred_mask.  Returns the settled rows.
  std::vector<LedgerRow> settle_frame(i32 frame, u32 scenario,
                                      f64 measured_frame_ms,
                                      std::span<const LedgerSample> actuals)
      TC_EXCLUDES(mutex_);

  /// Settled rows, oldest first (bounded by LedgerConfig::capacity).
  [[nodiscard]] std::vector<LedgerRow> rows() const TC_EXCLUDES(mutex_);
  /// The most recent `n` settled rows, oldest first.
  [[nodiscard]] std::vector<LedgerRow> recent(usize n) const
      TC_EXCLUDES(mutex_);

  [[nodiscard]] u64 rows_settled() const TC_EXCLUDES(mutex_);
  /// Predictions that never settled (pending frame evicted).
  [[nodiscard]] u64 frames_lost() const TC_EXCLUDES(mutex_);

  [[nodiscard]] CalibrationWindow::Stats node_calibration(
      i32 node, LedgerResource r) const TC_EXCLUDES(mutex_);
  [[nodiscard]] CalibrationWindow::Stats scenario_calibration(
      u32 scenario, LedgerResource r) const TC_EXCLUDES(mutex_);

  /// Self-contained "triplec-ledger-v1" JSON document of the retained rows
  /// (consumed by tools/triplec_ledger).
  [[nodiscard]] std::string dump_json() const TC_EXCLUDES(mutex_);

  void clear() TC_EXCLUDES(mutex_);

  [[nodiscard]] const LedgerConfig& config() const { return config_; }
  [[nodiscard]] std::string node_name(i32 node) const;

 private:
  struct PendingFrame {
    i32 frame = -1;
    i64 ticket = -1;
    f64 deadline_ms = 0.0;
    std::vector<LedgerRow> rows;
  };

  void observe_row(const LedgerRow& row) TC_REQUIRES(mutex_);
  void append_row(LedgerRow row) TC_REQUIRES(mutex_);
  CalibrationWindow& node_window(i32 node, i32 resource) TC_REQUIRES(mutex_);
  CalibrationWindow& scenario_window(u32 scenario, i32 resource)
      TC_REQUIRES(mutex_);
  void export_node_metrics(i32 node, i32 resource,
                           const CalibrationWindow::Stats& s)
      TC_REQUIRES(mutex_);
  void export_scenario_metrics(u32 scenario, i32 resource,
                               const CalibrationWindow::Stats& s)
      TC_REQUIRES(mutex_);

  LedgerConfig config_;
  MetricsRegistry* metrics_;

  mutable common::Mutex mutex_;
  std::deque<PendingFrame> pending_ TC_GUARDED_BY(mutex_);
  std::deque<LedgerRow> rows_ TC_GUARDED_BY(mutex_);
  u64 rows_settled_ TC_GUARDED_BY(mutex_) = 0;
  u64 frames_lost_ TC_GUARDED_BY(mutex_) = 0;
  /// (node, resource) and (scenario, resource) calibration streams, created
  /// lazily on first error sample.
  std::vector<std::pair<i64, CalibrationWindow>> node_streams_
      TC_GUARDED_BY(mutex_);
  std::vector<std::pair<i64, CalibrationWindow>> scenario_streams_
      TC_GUARDED_BY(mutex_);
};

// --- offline calibration report (shared by the ledger CLI and tests) -------

/// Calibration of one (node, scenario) group — node or scenario may be -1
/// meaning "aggregated over all".
struct GroupCalibration {
  i32 node = -1;
  i32 scenario = -1;
  u64 rows = 0;  ///< rows of the group with any scored resource
  std::array<CalibrationWindow::Stats, kLedgerResourceCount> res{};
};

struct CalibrationReport {
  u64 rows = 0;
  u64 frames = 0;
  u64 scenarios = 0;
  std::vector<GroupCalibration> per_node;           ///< scenario = -1
  std::vector<GroupCalibration> per_scenario;       ///< node = -1
  std::vector<GroupCalibration> per_node_scenario;  ///< both set
};

/// Build the full calibration report from raw rows (unbounded windows — the
/// offline report scores every sample, not just the most recent N).
[[nodiscard]] CalibrationReport build_calibration_report(
    std::span<const LedgerRow> rows);

/// The K worst-calibrated (node, scenario) pairs of the report, ranked by
/// P95 absolute percentage error of `rank_by` (groups with fewer than
/// `min_samples` scored samples are ignored).
[[nodiscard]] std::vector<const GroupCalibration*> worst_calibrated(
    const CalibrationReport& report, usize k,
    LedgerResource rank_by = LedgerResource::CpuMs, u64 min_samples = 3);

}  // namespace tc::obs
