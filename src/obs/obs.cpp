#include "obs/obs.hpp"

#include <vector>

namespace tc::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}

void ObsContext::set_node_namer(std::function<std::string(i32)> fn) {
  common::MutexLock lock(namer_mutex_);
  node_namer_ = std::move(fn);
}

std::string ObsContext::node_name(i32 node) const {
  {
    common::MutexLock lock(namer_mutex_);
    if (node_namer_) return node_namer_(node);
  }
  return "node" + std::to_string(node);
}

void ObsContext::clear() {
  metrics.reset_values();
  frames.clear();
  flight.clear();
}

ObsContext& global() {
  static ObsContext ctx;
  return ctx;
}

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::string chrome_trace_json(const ObsContext& ctx, f64 from_us,
                              f64 to_us) {
  std::vector<FlightEvent> events = ctx.flight.snapshot();
  std::erase_if(events, [&](const FlightEvent& e) {
    return e.ts_us < from_us || e.ts_us > to_us;
  });
  return chrome_trace_json(events,
                           [&ctx](i32 node) { return ctx.node_name(node); });
}

}  // namespace tc::obs
