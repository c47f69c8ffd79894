// Multi-stream serving layer: one runtime, N fluoroscopy streams.
//
// The paper sizes one StentBoost pipeline against one platform; an
// interventional suite runs several exam rooms against one reconstruction
// server.  The StreamServer scales the Triple-C loop to that setting
// without duplicating it: every stream keeps the full predict → partition →
// execute → feed-back cycle (its own exec::Executor with per-stream
// deadline, degradation ladder and prediction ledger), while the server
// owns what must be shared —
//
//   * one plat::ThreadPool executing every stream's stripe/batch instances
//     (optionally affinity-pinned, ServeConfig::pin_threads);
//   * prediction-driven admission (serve::AdmissionController): a stream is
//     admitted, queued, or rejected against the residual core and
//     memory-bus budgets *before* it runs, priced by a predictor snapshot
//     or a short probe;
//   * weighted-fair scheduling: scheduler slots repeatedly step the ready
//     stream with the lowest virtual time (vtime += measured_ms / weight),
//     and each stream's planner sees only its weighted share of the pool
//     (exec::Executor::set_pool_share → rt::budget_for_plan), so a
//     heavyweight stream cannot starve the others' instance budgets;
//   * the warm-start registry (serve::PredictorRegistry): retiring streams
//     publish their trained predictors, and newly submitted same-class
//     streams are priced from them without a probe;
//   * aggregate SLOs: per-stream and fleet-wide p99/miss-rate via
//     obs::SloMonitor (obs::deadline_slos under stream-prefixed objective
//     names), fleet gauges in the MetricsRegistry, and
//     StreamAdmit/StreamReject/StreamRetire events in the flight recorder.
//
// Usage: submit() every stream (admission decides immediately), then
// drain() once — it serves all admitted streams to completion, promoting
// queued streams as capacity retires.  All public methods are safe to call
// from one controlling thread; drain() spawns its own scheduler slots.
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "app/stentboost.hpp"
#include "common/sync.hpp"
#include "exec/executor.hpp"
#include "obs/slo.hpp"
#include "obs/status.hpp"
#include "obs/telemetry_server.hpp"
#include "platform/thread_pool.hpp"
#include "serve/admission.hpp"
#include "serve/registry.hpp"

namespace tc::serve {

/// One stream's submission: its application, deadline and fair-share weight.
struct StreamConfig {
  app::StentBoostConfig app;
  /// Per-frame deadline of this stream; must be > 0 (streams are priced in
  /// cores against it).
  f64 deadline_ms = 0.0;
  /// Weighted-fair share weight (relative; > 0).
  f64 weight = 1.0;
  /// Frames the stream serves before retiring.
  i32 frames = 64;
  exec::DeadlinePolicy policy = exec::DeadlinePolicy::Degrade;
  i32 max_stripes_per_task = 4;
  /// Per-stream prediction ledger (rows tagged with the stream id).
  bool ledger = true;
  /// Executor warm-up length (derives the deadline when none is set).
  i32 warmup_frames = 6;
  /// Display name ("s<id>" when empty).
  std::string name;
};

struct ServeConfig {
  /// Shared pool size (0 = the cores in the process affinity mask).
  i32 pool_threads = 0;
  /// Pin pool workers round-robin to cores (no-op off Linux).
  bool pin_threads = false;
  /// Scheduler slots: streams stepped concurrently at any instant.
  i32 max_concurrent_streams = 4;
  AdmissionConfig admission;
  /// In-process HTTP ops endpoint (obs/telemetry_server.hpp); off by
  /// default.  When enabled the server starts with the StreamServer,
  /// readiness flips once construction completes, and /streams serves
  /// fleet_status_json().
  obs::TelemetryConfig telemetry;
};

/// Everything known about one submitted stream after drain().
struct StreamReport {
  i32 id = -1;
  std::string name;
  std::string class_key;
  AdmissionDecision decision;
  /// Admitted warm: priced from a registry snapshot, without a probe.
  bool warm_started = false;
  f64 weight = 1.0;
  f64 deadline_ms = 0.0;
  /// The stream actually ran (admitted directly or promoted from the queue).
  bool served = false;
  i32 frames = 0;
  i32 deadline_misses = 0;
  i32 degraded_frames = 0;
  i32 repartitions = 0;
  f64 mean_ms = 0.0;
  f64 p50_ms = 0.0;
  f64 p99_ms = 0.0;
  f64 miss_rate = 0.0;
  /// Mean CPU absolute percentage error over the first 12 frames' ledger
  /// rows — the warm-vs-cold calibration comparison (-1 = no ledger data).
  f64 early_ape_pct = -1.0;
};

/// Live view of one submitted stream (fleet_status(); safe to take at any
/// time, including mid-drain from telemetry handler threads).
struct StreamStatus {
  i32 id = -1;
  std::string name;
  /// "active" | "done" | "queued" | "rejected".
  std::string state;
  /// Admission verdict at submission time ("admit" / "queue" / "reject").
  std::string verdict;
  f64 weight = 1.0;
  f64 deadline_ms = 0.0;
  /// Weighted-fair virtual time (ms of service / weight; 0 until served).
  f64 vtime = 0.0;
  /// Pool threads the stream's planner was last granted (0 until stepped).
  i32 pool_share = 0;
  i32 frames_done = 0;
  i32 frames_total = 0;
  i32 deadline_misses = 0;
  /// Per-stream SLO sliding-window aggregates (zeros before any frame).
  obs::SloMonitor::WindowStats slo;
  /// Rolling CPU calibration over the stream ledger's most recent rows
  /// (samples == 0 when the stream has no settled ledger data).
  u64 calibration_samples = 0;
  f64 cpu_bias_pct = 0.0;
  f64 cpu_p95_ape_pct = 0.0;
};

/// Live fleet snapshot backing the telemetry plane's /streams endpoint.
struct FleetStatus {
  bool draining = false;
  f64 capacity_cores = 0.0;
  f64 committed_cores = 0.0;
  i32 active = 0;
  i32 done = 0;
  i32 queued = 0;
  i32 rejected = 0;
  i64 fleet_frames = 0;
  /// Fleet-wide SLO window (zeros before the first admitted stream).
  obs::SloMonitor::WindowStats fleet_slo;
  std::vector<StreamStatus> streams;
};

struct FleetReport {
  i32 submitted = 0;
  i32 admitted = 0;  ///< includes streams promoted from the queue
  i32 queued = 0;    ///< verdict at submission time
  i32 rejected = 0;
  i64 frames = 0;
  i64 deadline_misses = 0;
  f64 miss_rate = 0.0;
  f64 p50_ms = 0.0;
  f64 p99_ms = 0.0;
  f64 capacity_cores = 0.0;
  f64 peak_committed_cores = 0.0;
  u64 registry_publishes = 0;
  u64 registry_hits = 0;
};

class StreamServer {
 public:
  explicit StreamServer(ServeConfig config = {});
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Submit one stream: demand is estimated (warm snapshot or cold probe)
  /// and the admission verdict issued immediately.  Admitted streams get a
  /// live session; queued streams wait for capacity to retire during
  /// drain(); rejected streams never run.  Returns the stream id.
  i32 submit(StreamConfig stream) TC_EXCLUDES(mutex_);

  /// Serve every admitted stream to completion on the scheduler slots,
  /// promoting queued streams as capacity frees.  Call once, after all
  /// submissions.
  void drain() TC_EXCLUDES(mutex_);

  [[nodiscard]] StreamReport report(i32 id) const TC_EXCLUDES(mutex_);
  [[nodiscard]] std::vector<StreamReport> reports() const TC_EXCLUDES(mutex_);
  [[nodiscard]] FleetReport fleet() const TC_EXCLUDES(mutex_);

  /// Live fleet snapshot — one short hold of the server mutex, safe to call
  /// concurrently with drain() (the telemetry handlers do, at scrape rate).
  [[nodiscard]] FleetStatus fleet_status() const TC_EXCLUDES(mutex_);
  /// fleet_status() rendered as the /streams JSON document.
  [[nodiscard]] std::string fleet_status_json() const TC_EXCLUDES(mutex_);
  /// Most recent settled ledger rows across every session, merged in stream
  /// order (rows carry their stream id); `per_stream` bounds the rows taken
  /// from each session's ledger.
  [[nodiscard]] std::vector<obs::LedgerRow> ledger_rows(
      usize per_stream = 512) const TC_EXCLUDES(mutex_);

  /// Telemetry plane (null unless ServeConfig::telemetry.enabled).
  [[nodiscard]] obs::TelemetryServer* telemetry() { return telemetry_.get(); }
  [[nodiscard]] obs::StatusAggregator& status() { return status_agg_; }

  [[nodiscard]] PredictorRegistry& registry() { return registry_; }
  [[nodiscard]] plat::ThreadPool& pool() { return pool_; }
  [[nodiscard]] const ServeConfig& config() const { return config_; }
  /// Fleet-wide SLO monitor (null before the first admitted stream).
  [[nodiscard]] obs::SloMonitor* fleet_slo() { return fleet_slo_.get(); }

 private:
  /// One admitted stream being served.
  struct Session {
    i32 id = -1;
    StreamConfig config;
    StreamDemand demand;
    std::unique_ptr<exec::Executor> executor;
    /// Per-stream SLO monitor, objective names prefixed "<name>/" so
    /// several streams coexist in one MetricsRegistry.
    std::unique_ptr<obs::SloMonitor> slo;
    f64 vtime = 0.0;  ///< weighted-fair virtual time (ms of service/weight)
    i32 next_frame = 0;
    bool busy = false;  ///< currently stepped by a scheduler slot
    bool done = false;
    std::vector<f64> latencies_ms;
    /// Mirrors kept under the server mutex for fleet_status(): executor
    /// internals (stats, pool share) are only safe to read from the slot
    /// that steps the stream, so the slot copies them here per frame.
    i32 pool_share = 0;
    i32 deadline_misses = 0;
  };

  /// Build the session for an admitted stream (executor on the shared pool,
  /// per-stream SLO monitor) and commit its demand.
  void activate(i32 id) TC_REQUIRES(mutex_);
  /// Retire a finished session: publish its predictor snapshot, release its
  /// demand, finalize its report, promote queued streams that now fit.
  void retire(Session& s) TC_REQUIRES(mutex_);
  void update_fleet_gauges() TC_REQUIRES(mutex_);
  /// Scheduler-slot loop: repeatedly step the min-vtime ready session.
  void slot_loop() TC_EXCLUDES(mutex_);
  [[nodiscard]] Session* pick_min_vtime() TC_REQUIRES(mutex_);
  [[nodiscard]] f64 active_weight() const TC_REQUIRES(mutex_);
  void finalize_report(Session& s) TC_REQUIRES(mutex_);

  ServeConfig config_;
  plat::ThreadPool pool_;
  AdmissionController admission_ TC_GUARDED_BY(mutex_);
  PredictorRegistry registry_;

  mutable common::Mutex mutex_;
  common::CondVar work_cv_;
  std::vector<std::unique_ptr<Session>> sessions_ TC_GUARDED_BY(mutex_);
  /// Stream ids queued at submission, FIFO promotion order.
  std::vector<i32> wait_queue_ TC_GUARDED_BY(mutex_);
  std::vector<StreamReport> reports_ TC_GUARDED_BY(mutex_);
  /// Streams submitted with StreamConfig retained for queued promotion.
  std::vector<StreamConfig> stream_configs_ TC_GUARDED_BY(mutex_);
  f64 peak_committed_cores_ TC_GUARDED_BY(mutex_) = 0.0;
  bool draining_ TC_GUARDED_BY(mutex_) = false;

  std::unique_ptr<obs::SloMonitor> fleet_slo_;
  /// Monotonic frame counter feeding the fleet SLO monitor.
  i64 fleet_frame_ TC_GUARDED_BY(mutex_) = 0;

  /// Telemetry plane, declared last so it is destroyed *first*: the HTTP
  /// handler threads must stop before the state their providers snapshot.
  obs::StatusAggregator status_agg_;
  std::unique_ptr<obs::TelemetryServer> telemetry_;
};

}  // namespace tc::serve
