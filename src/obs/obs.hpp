// Umbrella header and process-global observability context.
//
// Instrumentation hooks throughout the stack (the executor, the
// StentBoost app, the thread pool, the cache simulator, the predictors)
// check `obs::enabled()` — a relaxed atomic load — and do nothing when
// observability is off, so the hot path cost of a disabled registry is one
// predictable branch per hook.  Compiling with -DTC_OBS_ENABLED=0 (CMake
// option TRIPLEC_OBS=OFF) removes even that.
//
// Every event — frame lifecycles, spans, instants, counter samples — goes
// to one store, the flight recorder's per-thread rings (8192 events per
// recording thread; a wrap overwrites that thread's oldest events).  A span
// is one event recorded when it closes.  The simulated source's
// timeline travels in the event payload, the host time in the timestamp.
//
// Typical use (see examples/observe_run.cpp):
//   obs::set_enabled(true);
//   ... run the pipeline ...
//   obs::write_text_file("trace.json", obs::chrome_trace_json(obs::global()));
//   obs::write_text_file("metrics.prom", obs::to_prometheus(obs::global().metrics));
#pragma once

#include <atomic>
#include <functional>
#include <limits>
#include <string>

#include "common/sync.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/exporters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"

#ifndef TC_OBS_ENABLED
#define TC_OBS_ENABLED 1
#endif

namespace tc::obs {

/// All observability state of the process: the metrics registry, the
/// per-frame log and the flight recorder (the one event store).
class ObsContext {
 public:
  MetricsRegistry metrics;
  FrameLog frames;
  FlightRecorder flight;

  /// Map a flow-graph node id to a display name for task-labeled metrics;
  /// installed by the application layer (StentBoostApp does it in its
  /// constructor).  Defaults to "node<i>".
  void set_node_namer(std::function<std::string(i32)> fn)
      TC_EXCLUDES(namer_mutex_);
  [[nodiscard]] std::string node_name(i32 node) const
      TC_EXCLUDES(namer_mutex_);

  /// Drop all recorded events/frames and zero every metric value
  /// (instrument registrations survive, so cached references stay valid).
  void clear();

 private:
  mutable common::Mutex namer_mutex_;
  std::function<std::string(i32)> node_namer_ TC_GUARDED_BY(namer_mutex_);
};

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// The process-global context used by all built-in hooks.
[[nodiscard]] ObsContext& global();

/// Runtime switch for the built-in hooks (default: off — the null sink).
void set_enabled(bool on);

[[nodiscard]] inline bool enabled() {
#if TC_OBS_ENABLED
  return detail::g_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Chrome trace of the context's live flight events stamped within
/// [from_us, to_us] on the recorder's clock (every live event by default),
/// with node names from ctx.node_name.
[[nodiscard]] std::string chrome_trace_json(
    const ObsContext& ctx, f64 from_us = 0.0,
    f64 to_us = std::numeric_limits<f64>::infinity());

}  // namespace tc::obs
