// Quality-of-Service control (paper §1: the model descriptions are used for
// "resource planning, parallelization and possibly the corresponding QoS
// control").
//
// When even the widest stripe plan cannot meet the latency budget, the QoS
// ladder degrades the application gracefully instead of letting the
// latency blow up.  Quality levels trade accuracy/fidelity for time on the
// tasks that tolerate it:
//
//   level 0  full quality
//   level 1  coarser marker-detection grid (2x extra decimation)
//   level 2  + skip the guide-wire stability check
//   level 3  + display zoom at half resolution
//
// The ladder is purely advisory: it scales the latency forecast by
// analytically known factors and reports the level to apply; the executor's
// Degrade policy walks it and StentBoostApp implements the knobs
// (set_quality).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "runtime/partition.hpp"

namespace tc::rt {

struct QualityLevel {
  i32 level = 0;
  std::string_view name = "full";
  /// Extra decimation factor of the marker-detection grid (1 = none).
  i32 extra_mkx_decimation = 1;
  bool skip_guidewire = false;
  /// Display-zoom output divisor (1 = full resolution).
  i32 zoom_divisor = 1;

  /// Analytical forecast scale factors for the affected nodes.
  [[nodiscard]] f64 mkx_cost_factor() const {
    f64 d = static_cast<f64>(extra_mkx_decimation);
    return 1.0 / (d * d);
  }
  [[nodiscard]] f64 zoom_cost_factor() const {
    f64 d = static_cast<f64>(zoom_divisor);
    return 1.0 / (d * d);
  }
};

/// The built-in quality ladder, best quality first.
[[nodiscard]] std::span<const QualityLevel> quality_ladder();

/// Scale a forecast for the given quality level (MKX/ZOOM cheaper, GW off).
[[nodiscard]] std::vector<NodeForecast> degrade_forecast(
    std::span<const NodeForecast> forecast, const QualityLevel& level);

/// Quality level (index into quality_ladder()) and plan of one frame.
struct QualityPlan {
  i32 level = 0;
  PlanChoice plan;
};

/// The Degrade policy's ladder walk: starting at ladder index `from_level`,
/// step down one quality level at a time until the best plan of a level
/// fits the budget; stops at the lowest level (with its widest plan) when
/// nothing fits.  Recovering quality is the caller's decision (the executor
/// lifts one level after a streak of frames that fit one level better).
[[nodiscard]] QualityPlan walk_quality_ladder(
    const plat::CostParams& params, std::span<const NodeForecast> forecast,
    f64 budget_ms, i32 max_stripes_per_task, i32 cpu_count, i32 from_level);

}  // namespace tc::rt
