// StatusAggregator: the snapshot boundary between live subsystems and the
// telemetry plane.
//
// The telemetry server (obs/telemetry_server) answers HTTP requests from
// handler threads that must never sit on a hot-path lock: a scrape racing
// the scheduler would turn the ops plane into an interference source.  The
// aggregator enforces that discipline structurally — subsystems register
// *providers* (small callables returning already-snapshotted state), and
// every provider is built on an explicit snapshot method of the subsystem
// (serve::StreamServer::fleet_status(), which reads each stream's
// obs::SloMonitor::window_snapshot(), and obs::PredictionLedger::recent()),
// each of which copies state out under its own short-lived lock.  The
// aggregator's own mutex only guards provider registration; providers are
// invoked with it released.
//
// Layering: obs cannot see serve/exec, so the providers are type-erased
// std::functions that the higher layer installs (the StreamServer registers
// a fleet-status JSON provider).  The
// ledger provider returns raw LedgerRows; the aggregator renders the
// calibration report itself via build_calibration_report/worst_calibrated
// so every server shows the same worst-calibrated ranking as the
// triplec_ledger CLI.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "obs/ledger.hpp"

namespace tc::obs {

class StatusAggregator {
 public:
  /// Returns the /streams JSON document (fleet or single-stream status).
  using JsonProvider = std::function<std::string()>;
  /// Returns settled ledger rows (typically each stream's recent window).
  using RowsProvider = std::function<std::vector<LedgerRow>()>;
  using NodeNamer = std::function<std::string(i32)>;

  /// Readiness gate surfaced on /readyz: flip to true once the owning
  /// subsystem's startup gates (validation, audit, pool spin-up) passed.
  void set_ready(bool on) { ready_.store(on, std::memory_order_release); }
  [[nodiscard]] bool ready() const {
    return ready_.load(std::memory_order_acquire);
  }

  void set_streams_provider(JsonProvider provider) TC_EXCLUDES(mutex_);
  void set_ledger_provider(RowsProvider rows, NodeNamer node_name = {})
      TC_EXCLUDES(mutex_);

  /// The /streams document: the registered provider's output, or
  /// `{"ready":...,"streams":[]}` when nothing registered yet.  The
  /// provider runs with the aggregator mutex released.
  [[nodiscard]] std::string streams_json() const TC_EXCLUDES(mutex_);

  /// The /ledger document: the most recent `recent` rows plus the
  /// `worst` worst-calibrated (node, scenario) groups of the full
  /// provider window, ranked by CPU P95 APE (same ranking as
  /// `triplec_ledger --worst`).
  [[nodiscard]] std::string ledger_json(usize recent, usize worst) const
      TC_EXCLUDES(mutex_);

 private:
  std::atomic<bool> ready_{false};
  mutable common::Mutex mutex_;
  JsonProvider streams_ TC_GUARDED_BY(mutex_);
  RowsProvider ledger_rows_ TC_GUARDED_BY(mutex_);
  NodeNamer node_name_ TC_GUARDED_BY(mutex_);
};

}  // namespace tc::obs
