#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "runtime/partition.hpp"
#include "tripleC/bandwidth_model.hpp"

namespace tc::serve {

const char* to_string(AdmissionVerdict v) {
  switch (v) {
    case AdmissionVerdict::Admit:
      return "admit";
    case AdmissionVerdict::Queue:
      return "queue";
    case AdmissionVerdict::Reject:
      return "reject";
  }
  return "unknown";
}

namespace {

/// Walk the runtime's plan search chain for the forecast and return the
/// cheapest estimated latency any candidate achieves — the single-stream
/// feasibility bound (rt::choose_plan can never do better than this chain).
f64 best_candidate_ms(std::span<const rt::NodeForecast> forecast,
                      i32 max_stripes_per_task, i32 pool_threads) {
  const std::vector<analysis::sched::PlanCandidate> chain =
      rt::enumerate_plan_candidates(exec::host_cost_params(), forecast,
                                    max_stripes_per_task, pool_threads);
  f64 best = 0.0;
  for (const analysis::sched::PlanCandidate& c : chain) {
    if (best <= 0.0 || c.estimated_ms < best) best = c.estimated_ms;
  }
  return best;
}

}  // namespace

AdmissionController::AdmissionController(AdmissionConfig config,
                                         i32 pool_threads,
                                         plat::PlatformSpec spec)
    : config_(config),
      pool_threads_(std::max(1, pool_threads)),
      capacity_cores_(
          static_cast<f64>(std::min(pool_threads_, plat::affinity_cores())) *
          config.cpu_headroom),
      capacity_bus_mbps_(spec.memory_bus_gbps * 1000.0 * config.bus_headroom) {}

StreamDemand AdmissionController::estimate_demand(
    const app::StentBoostConfig& app_config, f64 deadline_ms,
    i32 max_stripes_per_task, const exec::PredictorSnapshot* snapshot) const {
  StreamDemand d;
  d.deadline_ms = deadline_ms;

  std::vector<rt::NodeForecast> forecast(app::kNodeCount);
  if (snapshot != nullptr && snapshot->trained()) {
    // Warm admission: the registry's trained predictor prices the stream
    // with no execution at all — skipping the probe is the first cold-start
    // saving.
    d.warm = true;
    d.bus_mb_per_frame = snapshot->bus_mb_per_frame;
    forecast = snapshot->forecast();
    for (const rt::NodeForecast& f : forecast) {
      if (f.active) d.frame_ms += f.serial_ms;
    }
  } else {
    // Cold admission: serially probe a throwaway copy of the application
    // (same pattern as the executor's startup audit gate — the real stream
    // keeps its pristine inter-frame state).
    app::StentBoostApp probe(app_config);
    const i32 frames = std::max(1, config_.probe_frames);
    std::array<f64, app::kNodeCount> node_ms_sum{};
    std::array<i32, app::kNodeCount> node_runs{};
    const u64 l2_slice = app_config.platform.l2_bytes;
    std::array<bool, app::kNodeCount> is_source{};
    std::array<bool, app::kNodeCount> is_sink{};
    is_source.fill(true);
    is_sink.fill(true);
    for (const graph::Edge& e : probe.graph().edges()) {
      is_sink[static_cast<usize>(e.from)] = false;
      is_source[static_cast<usize>(e.to)] = false;
    }
    f64 frame_ms_sum = 0.0;
    for (i32 t = 0; t < frames; ++t) {
      const graph::FrameRecord record = probe.process_frame(t);
      for (const graph::TaskExecution& exec : record.tasks) {
        if (!exec.executed) continue;
        const auto node = static_cast<usize>(exec.node);
        node_ms_sum[node] += exec.host_ms;
        ++node_runs[node];
        frame_ms_sum += exec.host_ms;
        const model::NodeBusTraffic bus = model::attribute_node_buses(
            exec.work, is_source[node], is_sink[node], l2_slice);
        d.bus_mb_per_frame[0] += bus.cache_mb / frames;
        d.bus_mb_per_frame[1] += bus.memory_mb / frames;
        d.bus_mb_per_frame[2] += bus.io_mb / frames;
      }
    }
    d.frame_ms = frame_ms_sum / frames;
    for (usize node = 0; node < app::kNodeCount; ++node) {
      forecast[node].active = node_runs[node] > 0;
      forecast[node].serial_ms =
          node_runs[node] > 0 ? node_ms_sum[node] / node_runs[node] : 0.0;
      forecast[node].data_parallel = app::node_data_parallel(narrow<i32>(node));
    }
  }

  d.best_plan_ms =
      best_candidate_ms(forecast, max_stripes_per_task, pool_threads_);
  d.plan_feasible =
      deadline_ms > 0.0 && d.best_plan_ms > 0.0 && d.best_plan_ms <= deadline_ms;
  if (deadline_ms > 0.0) {
    d.cores = std::max(config_.min_cores, d.frame_ms / deadline_ms);
    d.memory_bus_mbps = d.bus_mb_per_frame[1] * (1000.0 / deadline_ms);
  }
  return d;
}

AdmissionDecision AdmissionController::decide(
    const StreamDemand& demand) const {
  AdmissionDecision decision;
  decision.demand = demand;
  decision.residual_cores = residual_cores();
  decision.capacity_cores = capacity_cores_;

  if (demand.deadline_ms <= 0.0) {
    decision.verdict = AdmissionVerdict::Reject;
    decision.reason = "stream has no deadline";
    return decision;
  }
  if (!demand.plan_feasible) {
    decision.verdict = AdmissionVerdict::Reject;
    decision.reason = "no candidate plan fits the deadline even alone (best " +
                      std::to_string(demand.best_plan_ms) + " ms vs " +
                      std::to_string(demand.deadline_ms) + " ms)";
    return decision;
  }
  if (demand.cores > capacity_cores_) {
    decision.verdict = AdmissionVerdict::Reject;
    decision.reason = "core demand " + std::to_string(demand.cores) +
                      " exceeds total capacity " +
                      std::to_string(capacity_cores_);
    return decision;
  }
  if (demand.memory_bus_mbps > capacity_bus_mbps_) {
    decision.verdict = AdmissionVerdict::Reject;
    decision.reason = "memory-bus demand " +
                      std::to_string(demand.memory_bus_mbps) +
                      " MB/s exceeds bus capacity " +
                      std::to_string(capacity_bus_mbps_) + " MB/s";
    return decision;
  }
  if (demand.cores > residual_cores()) {
    decision.verdict = AdmissionVerdict::Queue;
    decision.reason = "core demand " + std::to_string(demand.cores) +
                      " exceeds residual " + std::to_string(residual_cores());
    return decision;
  }
  if (committed_bus_mbps_ + demand.memory_bus_mbps > capacity_bus_mbps_) {
    decision.verdict = AdmissionVerdict::Queue;
    decision.reason = "memory-bus demand exceeds residual bandwidth";
    return decision;
  }
  decision.verdict = AdmissionVerdict::Admit;
  decision.reason = "fits residual budget";
  return decision;
}

void AdmissionController::commit(const StreamDemand& demand) {
  committed_cores_ += demand.cores;
  committed_bus_mbps_ += demand.memory_bus_mbps;
  ++admitted_streams_;
}

void AdmissionController::release(const StreamDemand& demand) {
  committed_cores_ = std::max(0.0, committed_cores_ - demand.cores);
  committed_bus_mbps_ =
      std::max(0.0, committed_bus_mbps_ - demand.memory_bus_mbps);
  admitted_streams_ = std::max(0, admitted_streams_ - 1);
}

}  // namespace tc::serve
