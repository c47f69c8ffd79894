#include "runtime/partition.hpp"

#include <algorithm>
#include <sstream>

namespace tc::rt {

namespace {

/// Adapt the runtime's per-node forecasts to the generic schedulability
/// core's node description (names come from the application node table).
std::vector<analysis::sched::ScheduleNode> to_schedule_nodes(
    std::span<const NodeForecast> forecast) {
  std::vector<analysis::sched::ScheduleNode> nodes(forecast.size());
  for (usize node = 0; node < forecast.size(); ++node) {
    nodes[node].name = app::node_name(narrow<i32>(node));
    nodes[node].active = forecast[node].active;
    nodes[node].data_parallel = forecast[node].data_parallel;
    nodes[node].serial_ms = forecast[node].serial_ms;
  }
  return nodes;
}

app::StripePlan to_stripe_plan(const analysis::sched::PlanVec& plan) {
  app::StripePlan out = app::serial_plan();
  for (usize node = 0; node < plan.size() && node < out.size(); ++node) {
    out[node] = plan[node];
  }
  return out;
}

}  // namespace

f64 estimate_latency(const plat::CostParams& params,
                     std::span<const NodeForecast> forecast,
                     const app::StripePlan& plan) {
  f64 total = 0.0;
  for (usize node = 0; node < forecast.size(); ++node) {
    const NodeForecast& f = forecast[node];
    if (!f.active) continue;
    i32 stripes = f.data_parallel ? plan[node] : 1;
    total += plat::striped_ms_from_serial(params, f.serial_ms, stripes);
  }
  return total;
}

std::vector<analysis::sched::PlanCandidate> enumerate_plan_candidates(
    const plat::CostParams& params, std::span<const NodeForecast> forecast,
    i32 max_stripes_per_task, i32 cpu_count) {
  return analysis::sched::enumerate_plans(params, to_schedule_nodes(forecast),
                                          max_stripes_per_task, cpu_count);
}

PlanChoice choose_plan(const plat::CostParams& params,
                       std::span<const NodeForecast> forecast, f64 budget_ms,
                       i32 max_stripes_per_task, i32 cpu_count) {
  // First-fit over the greedy widening chain (never empty: it starts with
  // the serial plan); when even the widest plan misses the budget, the
  // widest plan is returned.
  const std::vector<analysis::sched::PlanCandidate> chain =
      enumerate_plan_candidates(params, forecast, max_stripes_per_task,
                                cpu_count);
  const auto fit = std::find_if(
      chain.begin(), chain.end(),
      [budget_ms](const analysis::sched::PlanCandidate& c) {
        return c.estimated_ms <= budget_ms;
      });
  const bool fits = fit != chain.end();
  const analysis::sched::PlanCandidate& chosen = fits ? *fit : chain.back();
  return {to_stripe_plan(chosen.plan), chosen.estimated_ms, fits};
}

app::InstanceBudget budget_for_plan(const PlanChoice& choice, i32 pool_threads,
                                    i32 frames_in_flight) {
  app::InstanceBudget budget;
  const i32 threads = std::max(1, pool_threads);
  const i32 in_flight = std::max(1, frames_in_flight);
  // Fair share of the pool for one in-flight frame (never below one slot).
  const i32 share = std::max(1, threads / in_flight);
  i32 widest = 1;
  for (i32 stripes : choice.plan) widest = std::max(widest, stripes);
  budget.max_concurrent = std::min(widest, share);
  budget.feature_batches = std::clamp(share, 1, 4);
  return budget;
}

std::string plan_to_string(const app::StripePlan& plan) {
  std::ostringstream os;
  bool any = false;
  for (usize node = 0; node < plan.size(); ++node) {
    if (plan[node] > 1) {
      if (any) os << ' ';
      os << app::node_name(narrow<i32>(node)) << "x" << plan[node];
      any = true;
    }
  }
  if (!any) os << "serial";
  return os.str();
}

}  // namespace tc::rt
