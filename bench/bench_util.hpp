// Shared helpers for the experiment benches: the per-task predictor kinds of
// Table 2(b) and small formatting utilities.
#pragma once

#include <sched.h>

#include <cstdio>
#include <string>

#include "app/stentboost.hpp"
#include "obs/scoped_timer.hpp"
#include "tripleC/graph_predictor.hpp"

namespace tc::bench {

/// Cores this process may run on (the sched_getaffinity mask), not the
/// machine's; 0 when the mask cannot be read.
[[nodiscard]] inline int affinity_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// Prints "[wall] <label>: X ms" when the scope ends.  Benches time their
/// sections through this (obs::ScopedTimer underneath) instead of
/// hand-rolling std::chrono arithmetic.
class ScopedWallReport {
 public:
  explicit ScopedWallReport(const char* label) : label_(label) {}
  ~ScopedWallReport() {
    std::printf("[wall] %s: %.1f ms\n", label_, timer_.elapsed_ms());
  }
  ScopedWallReport(const ScopedWallReport&) = delete;
  ScopedWallReport& operator=(const ScopedWallReport&) = delete;

 private:
  const char* label_;
  obs::ScopedTimer timer_;
};

/// Configure a GraphPredictor with the paper's Table 2(b) model kinds:
/// EWMA+Markov for the data-dependent tasks (RDG_FULL, CPLS_SEL, GW_EXT),
/// Eq.3-linear+Markov for the granularity-driven RDG_ROI, constants for the
/// rest (MKX, REG, ROI_EST, ENH, ZOOM).
inline void configure_paper_kinds(model::GraphPredictor& gp) {
  using model::PredictorConfig;
  using model::PredictorKind;
  auto cfg = [](PredictorKind kind) {
    PredictorConfig c;
    c.kind = kind;
    return c;
  };
  gp.configure_task(app::kRdgFull, cfg(PredictorKind::EwmaMarkov));
  gp.configure_task(app::kRdgRoi, cfg(PredictorKind::LinearMarkov));
  gp.configure_task(app::kMkxFull, cfg(PredictorKind::Constant));
  // Deviation from Table 2b: in this implementation MKX_ROI work scales
  // with the ROI size (decimation of the ROI) and ENH restarts cheaply
  // after a registration failure, so granularity/history-aware models fit
  // them better than the paper's constants.
  gp.configure_task(app::kMkxRoi, cfg(PredictorKind::LinearMarkov));
  gp.configure_task(app::kCplsSel, cfg(PredictorKind::EwmaMarkov));
  gp.configure_task(app::kReg, cfg(PredictorKind::Constant));
  gp.configure_task(app::kRoiEst, cfg(PredictorKind::Constant));
  gp.configure_task(app::kGwExt, cfg(PredictorKind::EwmaMarkov));
  gp.configure_task(app::kEnh, cfg(PredictorKind::EwmaMarkov));
  gp.configure_task(app::kZoom, cfg(PredictorKind::Constant));

  // Scenario conditioning: the enhancement stage has two cost regimes —
  // a cheap restart after a failed registration (the accumulator is
  // re-seeded) and the steady motion-compensated integration.  The regime
  // is known from the previous frame's REG switch, so ENH gets one
  // predictor per regime (the "scenario-based" part of Triple-C).
  gp.set_context_fn([](const graph::FrameRecord* prev, i32 node) -> u32 {
    if (node == app::kEnh) {
      return (prev != nullptr && ((prev->scenario >> app::kSwReg) & 1u) != 0)
                 ? 1u
                 : 0u;
    }
    return 0u;
  });
}

inline void print_header(const char* experiment, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n\n");
}

}  // namespace tc::bench
