// Workload definitions and the code that runs them.
//
// Every parameter of a workload is a constant here; nothing is calibrated
// on the code under test.  The seed (a CLI argument) only selects the
// synthetic sequences.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "app/stentboost.hpp"
#include "exec/executor.hpp"
#include "open_loop.hpp"
#include "report.hpp"
#include "span_buffer.hpp"
#include "stats.hpp"

namespace tcbench {

/// Pool threads of every workload (the host has 4 cores).
inline constexpr int kPoolThreads = 4;

/// One open-loop stream through exec::Executor::step.
struct StreamSpec {
  const char* name;
  int size;                 ///< frame side, pixels
  int sequence_frames;      ///< synthetic sequence length (pinned)
  int offered_frames;       ///< frames offered on the arrival clock
  double period_ms;         ///< arrival period of the open-loop clock
  double deadline_ms;       ///< executor deadline (forces striping)
  /// Arrival-to-display limit behind late_pct: a target below today's
  /// latency, under which mostly frames that skip ENH and ZOOM fall, so the
  /// late share stays large and does not swing with host speed.
  double latency_limit_ms;
  int reference_frames;     ///< prefix compared with the serial reference
};

/// Natural scenario dynamics at the paper's format: ROI mode from about
/// frame 3, the contrast bolus (ridge detection on) over frames 30-150.
/// The 50 ms deadline is below the task time of every frame that runs ENH
/// and ZOOM, so the planner stripes as wide as it can and latency follows
/// kernel and pool speed rather than the slack a deadline leaves.  200
/// offered frames leave 10 samples beyond p95; at 270 ms they take 54 s.
inline constexpr StreamSpec kRoi1024{"roi_1024", 1024, 400, 200, 270.0, 50.0,
                                     100.0, 32};

/// A closed-loop fleet on one serve::StreamServer, repeated in rounds.
struct FleetSpec {
  const char* name;
  int size;
  int sequence_frames;  ///< per stream; every stream serves all of them
  std::array<double, 4> weights;
  double deadline_ms;
  /// Display-interval limit behind late_pct (see run_fleet_workload).
  double latency_limit_ms;
  int scrape_period_ms;  ///< telemetry /metrics scrape period
  int slots;             ///< scheduler slots (streams stepped at once)
  int rounds;            ///< timed fleets served one after another, each to the end
};

/// One slot per stream, so a frame's display interval is its stream's step
/// and not a wait for a slot.  With fewer slots than streams the intervals
/// split into back-to-back steps and slot waits, the median falls in the
/// gap between the two, and it swings with small shifts in their mix.
inline constexpr FleetSpec kFleet256{"fleet_256", 256, 300, {2.0, 1.0, 2.0, 1.0},
                                     40.0, 12.0, 1000, 4, 5};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct RunResult {
  Report report;
  bool correct = true;
  long attempted = 0;
  long failed = 0;
};

RunResult run_stream_workload(const StreamSpec& spec, const Options& opt);
RunResult run_fleet_workload(const FleetSpec& spec, const Options& opt);

// --- shared single-stream machinery (workloads.cpp / layers.cpp) ----------

/// Content digest of a displayed frame (dimensions and pixels).
[[nodiscard]] std::uint64_t image_digest(const tc::img::ImageU16& image);

struct StepRecord {
  double exec_step_ms = 0.0;  ///< around Executor::step only
  tc::exec::ExecutedFrame frame;
  std::uint64_t digest = 0;
  int out_w = 0;
  int out_h = 0;
};

struct StreamRun {
  OpenLoopResult loop;
  std::vector<StepRecord> steps;
  double cpu_ms = 0.0;   ///< process CPU over the timed loop
  double wall_ms = 0.0;  ///< first arrival to last display
  double rss_start_mb = 0.0;
  double rss_end_mb = 0.0;
  double peak_rss_mb = 0.0;
};

/// Step `frames` frames of `ex` on the arrival clock (period_ms <= 0: closed
/// loop).  With `spans`, even frames are traced and odd frames are not, so
/// the tracing cost can be read off the same run.
StreamRun drive_executor(tc::exec::Executor& ex, int frames, double period_ms,
                         SpanBuffer* spans);

/// Per-layer probes on one stream run (traced runs only); fills the exec,
/// tripleC, imaging, app, platform and runtime metrics.  `reference_ms`
/// holds the serial reference's per-frame times.
void measure_stream_layers(tc::exec::Executor& ex,
                           const tc::app::StentBoostConfig& cfg,
                           const StreamRun& run, const Samples& reference_ms,
                           SpanBuffer* spans, Report& report, long& failed);

/// Span summary per name (calls, busy, self) on stdout.
void print_span_summary(const SpanBuffer& spans);

}  // namespace tcbench
