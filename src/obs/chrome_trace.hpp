// Chrome trace-event JSON (chrome://tracing, https://ui.perfetto.dev) from
// flight-recorder events: the one writer behind every trace the repository
// produces — examples/observe_run, examples/parallel_run, the telemetry
// server's GET /trace and `triplec_postmortem --chrome`.
//
// The writer derives each Chrome element from the events that carry its
// facts; nothing is recorded twice for the sake of the trace.
//
// pid 2 "host" — one lane per recorder thread, wall-clock positions:
//   task_span  -> 'X' named after the node, [ts - a, ts]
//   pool_job   -> 'X' "pool_job"; its lane is labelled "pool worker <tid>"
//   stage_end  -> 'X' "stage <i>"; its lane is labelled "exec-stage <i>"
//   frame_start + frame_end of one frame id -> 'X' "frame <f>" on the
//                 frame_start's lane (same-thread pairs are preferred)
//   ledger_cpu -> 'C' "ledger <node> cpu_ms", series predicted/actual
//   stage_start and sim_task are consumed by the rules above and below;
//   every other event becomes an instant named after its type.
// pid 1 "simulated platform" — the simulated source's clock, read
// from the event payload (frame_start.b is the frame's simulated start):
//   a frame whose frame_end is followed on its thread's ring by sim_task
//   events gets a 'X' "frame <f>" of max(measured, budget) ms, a
//   delay_line_hold for the part past the measured latency, its
//   repartition / qos_level_change instants, and one task span per
//   sim_task, laid back to back, with stripe-lane copies for striped tasks.
#pragma once

#include <functional>
#include <span>
#include <string>

#include "common/types.hpp"
#include "obs/flight_recorder.hpp"

namespace tc::obs {

/// Process ids of the two timelines in the exported trace.
constexpr u32 kSimPid = 1;
constexpr u32 kHostPid = 2;

/// Display name of a flow-graph node id (ObsContext::node_name in-process,
/// the bundle's predictor summary in the post-mortem tool).
using NodeNamer = std::function<std::string(i32)>;

/// Render `events` (host-time ordered, as FlightRecorder::snapshot returns
/// them) as a Chrome trace document {"traceEvents":[...]} with the process
/// and thread metadata first.  Deterministic: the same events and names
/// always give the same bytes.
[[nodiscard]] std::string chrome_trace_json(
    std::span<const FlightEvent> events, const NodeNamer& node_name);

}  // namespace tc::obs
