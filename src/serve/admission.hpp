// Prediction-driven admission control for the multi-stream serving layer.
//
// The paper sizes ONE application against ONE platform; serving N
// fluoroscopy streams from one runtime turns that sizing question into an
// admission question: does the next stream's predicted resource usage fit
// the capacity the already-admitted streams leave over?  The controller
// answers with a typed verdict:
//
//   Admit  — predicted core and memory-bus demand fit the residual budget;
//   Queue  — the stream fits an *idle* server but not the current residual
//            (it can start once an admitted stream retires);
//   Reject — the stream cannot be served even alone: its demand exceeds
//            the whole capacity, or no plan in the runtime's search chain
//            (rt::enumerate_plan_candidates) makes its frames fit the
//            deadline on this platform.
//
// Demand is expressed in *cores*: a stream predicted to need S ms of
// serial-equivalent work per frame against a D ms deadline occupies S/D
// cores of sustained throughput (stripe parallelism moves latency, not
// area).  The estimate comes from a trained predictor snapshot when the
// registry has one for the stream's class (warm admission — no probe), or
// from a short serial probe of a throwaway application copy otherwise,
// mirroring the executor's startup audit gate.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "app/stentboost.hpp"
#include "exec/executor.hpp"
#include "platform/spec.hpp"

namespace tc::serve {

enum class AdmissionVerdict : i32 {
  Admit = 0,
  Queue,
  Reject,
};

[[nodiscard]] const char* to_string(AdmissionVerdict v);

/// Predicted steady-state resource usage of one stream.
struct StreamDemand {
  /// Predicted serial-equivalent cost per frame, milliseconds.
  f64 frame_ms = 0.0;
  f64 deadline_ms = 0.0;
  /// Sustained cores occupied: frame_ms / deadline_ms.
  f64 cores = 0.0;
  /// Predicted per-frame bus traffic (cache / memory / I/O MB, Fig. 4).
  std::array<f64, 3> bus_mb_per_frame{};
  /// Memory-bus bandwidth at the stream's frame rate, MB/s.
  f64 memory_bus_mbps = 0.0;
  /// Cheapest plan of the runtime search chain that fits the deadline when
  /// the stream runs alone (estimated ms; 0 when no forecast was available).
  f64 best_plan_ms = 0.0;
  /// False when even the widest candidate plan misses the deadline.
  bool plan_feasible = true;
  /// Demand came from a registry snapshot instead of a probe run.
  bool warm = false;
};

struct AdmissionConfig {
  /// Fraction of the cores admission may commit — the pool's threads, but
  /// no more than the cores in the process affinity mask (the rest absorbs
  /// stripe overhead, scheduler noise and prediction error).
  f64 cpu_headroom = 0.85;
  /// Fraction of the platform memory-bus bandwidth admission may commit.
  f64 bus_headroom = 0.80;
  /// Serial probe length for cold streams (throwaway application copy).
  i32 probe_frames = 6;
  /// Floor on a stream's core demand (a probe can measure near-zero on an
  /// idle host; committing 0 cores would admit unboundedly many streams).
  f64 min_cores = 0.02;
};

/// One admission decision with the numbers behind it.
struct AdmissionDecision {
  AdmissionVerdict verdict = AdmissionVerdict::Reject;
  StreamDemand demand;
  /// Core capacity left before this stream (capacity - committed).
  f64 residual_cores = 0.0;
  f64 capacity_cores = 0.0;
  std::string reason;
};

/// Tracks committed capacity and issues verdicts.  Not thread-safe: the
/// StreamServer serializes admission under its own mutex.
class AdmissionController {
 public:
  AdmissionController(AdmissionConfig config, i32 pool_threads,
                      plat::PlatformSpec spec);

  /// Predict the stream's demand: from `snapshot` when it is trained (warm,
  /// no execution), else by serially probing a throwaway copy of the
  /// application for probe_frames frames.  Also walks the runtime's plan
  /// search chain to decide single-stream deadline feasibility.
  [[nodiscard]] StreamDemand estimate_demand(
      const app::StentBoostConfig& app_config, f64 deadline_ms,
      i32 max_stripes_per_task,
      const exec::PredictorSnapshot* snapshot) const;

  /// Verdict for `demand` against the current residual budgets.  Pure —
  /// commit() makes an Admit stick.
  [[nodiscard]] AdmissionDecision decide(const StreamDemand& demand) const;

  void commit(const StreamDemand& demand);
  void release(const StreamDemand& demand);

  [[nodiscard]] f64 capacity_cores() const { return capacity_cores_; }
  [[nodiscard]] f64 committed_cores() const { return committed_cores_; }
  [[nodiscard]] f64 residual_cores() const {
    return capacity_cores_ - committed_cores_;
  }
  [[nodiscard]] f64 capacity_bus_mbps() const { return capacity_bus_mbps_; }
  [[nodiscard]] f64 committed_bus_mbps() const { return committed_bus_mbps_; }
  [[nodiscard]] i32 admitted_streams() const { return admitted_streams_; }
  [[nodiscard]] const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
  i32 pool_threads_;
  f64 capacity_cores_;
  f64 capacity_bus_mbps_;
  f64 committed_cores_ = 0.0;
  f64 committed_bus_mbps_ = 0.0;
  i32 admitted_streams_ = 0;
};

}  // namespace tc::serve
