#include "runtime/qos.hpp"

#include <algorithm>
#include <array>

namespace tc::rt {

std::span<const QualityLevel> quality_ladder() {
  static const std::array<QualityLevel, 4> kLadder = {{
      {0, "full", 1, false, 1},
      {1, "coarse-markers", 2, false, 1},
      {2, "no-guidewire", 2, true, 1},
      {3, "half-zoom", 2, true, 2},
  }};
  return kLadder;
}

std::vector<NodeForecast> degrade_forecast(
    std::span<const NodeForecast> forecast, const QualityLevel& level) {
  std::vector<NodeForecast> out(forecast.begin(), forecast.end());
  auto scale = [&out](i32 node, f64 factor) {
    out[static_cast<usize>(node)].serial_ms *= factor;
  };
  scale(app::kMkxFull, level.mkx_cost_factor());
  scale(app::kMkxRoi, level.mkx_cost_factor());
  scale(app::kZoom, level.zoom_cost_factor());
  if (level.skip_guidewire) {
    out[static_cast<usize>(app::kGwExt)].active = false;
  }
  return out;
}

QualityPlan walk_quality_ladder(const plat::CostParams& params,
                                std::span<const NodeForecast> forecast,
                                f64 budget_ms, i32 max_stripes_per_task,
                                i32 cpu_count, i32 from_level) {
  const std::span<const QualityLevel> ladder = quality_ladder();
  const i32 lowest = narrow<i32>(ladder.size()) - 1;
  QualityPlan q;
  for (q.level = std::clamp(from_level, 0, lowest);; ++q.level) {
    const std::vector<NodeForecast> degraded =
        degrade_forecast(forecast, ladder[static_cast<usize>(q.level)]);
    q.plan = choose_plan(params, degraded, budget_ms, max_stripes_per_task,
                         cpu_count);
    if (q.plan.fits_budget || q.level == lowest) return q;
  }
}

}  // namespace tc::rt
