// Partitioning strategies (paper §6).
//
// Streaming tasks (RDG, MKX, ENH, ZOOM) support data partitioning into row
// stripes executed on multiple CPUs; feature-level tasks (CPLS_SEL, GW_EXT)
// would be partitioned functionally — in this single-application setting
// they stay serial and functional partitioning shows up as the ability to
// run them while another CPU group works on streaming stripes of the next
// frame (modeled through the latency estimator's overhead terms).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/schedulability.hpp"
#include "app/stentboost.hpp"
#include "platform/cost_model.hpp"

namespace tc::rt {

/// Predicted serial execution time per node plus its activity this frame.
struct NodeForecast {
  f64 serial_ms = 0.0;
  bool active = false;
  bool data_parallel = false;
};

// The stripe scaling law (serial time -> striped time and its inverse)
// lives in plat::striped_ms_from_serial / plat::serial_ms_from_striped
// (platform/cost_model.hpp) — one definition shared between this planner
// and the static audit.  Unqualified calls on a plat::CostParams argument
// resolve there via ADL.

/// Frame latency estimate for a plan: sum over active nodes of their
/// (striped or serial) estimated time.
[[nodiscard]] f64 estimate_latency(
    const plat::CostParams& params,
    std::span<const NodeForecast> forecast, const app::StripePlan& plan);

/// Choose the cheapest plan (fewest total stripes) whose estimated latency
/// fits the budget: stripes are added greedily to the currently most
/// expensive data-parallel active node.  When even the widest plan misses
/// the budget, the widest plan is returned.
struct PlanChoice {
  app::StripePlan plan;
  f64 estimated_ms = 0.0;
  bool fits_budget = false;
};

/// The complete, budget-independent search space of choose_plan: the greedy
/// widening chain from the serial plan (first entry) to saturation (last
/// entry, where no node can be widened profitably).  choose_plan returns the
/// first candidate fitting its budget, or the last when none fits — exposing
/// the chain lets the static audit (analysis::audit) prove properties over
/// exactly the plans the runtime can ever pick.  Each candidate's plan has
/// one entry per forecast node.
[[nodiscard]] std::vector<analysis::sched::PlanCandidate>
enumerate_plan_candidates(
    const plat::CostParams& params, std::span<const NodeForecast> forecast,
    i32 max_stripes_per_task, i32 cpu_count);

[[nodiscard]] PlanChoice choose_plan(const plat::CostParams& params,
                                     std::span<const NodeForecast> forecast,
                                     f64 budget_ms, i32 max_stripes_per_task,
                                     i32 cpu_count);

/// Host resource budget for one frame executed under `choice`: with
/// `frames_in_flight` frames sharing a `pool_threads`-worker pool (stage
/// pipelining), each frame may run at most pool/frames_in_flight instances
/// concurrently — capped further by the widest stripe count the plan
/// actually asks for.  Feature-level batching (MKX/CPLS) follows the same
/// per-frame share, clamped to [1, 4].  Pure function of its inputs; the
/// budget throttles *host* concurrency only and never changes WorkReports.
[[nodiscard]] app::InstanceBudget budget_for_plan(const PlanChoice& choice,
                                                  i32 pool_threads,
                                                  i32 frames_in_flight);

[[nodiscard]] std::string plan_to_string(const app::StripePlan& plan);

}  // namespace tc::rt
