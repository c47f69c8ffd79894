// Bridge between the generic audit core (analysis/audit.hpp) and the
// StentBoost application: builds the per-scenario ScheduleNode cases from a
// trained GraphPredictor — the same per-node predictions exec::Executor's
// forecast feeds rt::choose_plan — so the offline proof and the online
// planner argue about identical numbers.  exec::Executor calls audit_app at
// startup (behind ExecutorConfig::audit_at_startup) to refuse graphs whose
// reachable scenarios are statically infeasible.
#pragma once

#include <span>
#include <vector>

#include "analysis/audit.hpp"
#include "app/stentboost.hpp"
#include "graph/record.hpp"
#include "tripleC/graph_predictor.hpp"
#include "tripleC/memory_model.hpp"

namespace tc::rt {

/// Capture one Table-1 memory row per executed (task, rdg_selected) pair
/// from a recorded run, keeping the largest-footprint report of each and
/// scaling buffer sizes by `scale` (use (paper pixels)/(rendered pixels)).
[[nodiscard]] std::vector<model::MemoryRow> capture_memory_rows(
    std::span<const graph::FrameRecord> records, f64 scale);

/// One ScenarioCase per scenario id: node activity from
/// app::scenario_node_activity, serial predictions from the trained
/// predictor.  ROI-granularity nodes are priced at the *full-frame* pixel
/// count (the worst ROI the estimator can produce) — the audit proves
/// feasibility for the pessimistic ROI, the runtime then only does better.
[[nodiscard]] std::vector<analysis::audit::ScenarioCase> make_audit_cases(
    app::StentBoostApp& app, const model::GraphPredictor& predictor);

/// Run the full static audit of an application + trained predictor.
/// Fields of `options` left at their defaults are derived from the app:
/// cpu_count from the platform, byte_scale from the cost model's resolution
/// scale, device_format from the paper format (pass explicit values to
/// override).  `memory_rows` may be empty (buffer/eviction checks skipped).
[[nodiscard]] analysis::audit::AuditResult audit_app(
    app::StentBoostApp& app, const model::GraphPredictor& predictor,
    std::span<const model::MemoryRow> memory_rows,
    analysis::audit::AuditOptions options = {});

}  // namespace tc::rt
