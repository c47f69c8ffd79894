// The paper's per-task predictor kinds (Table 2b) for the StentBoost graph.
//
// Offline-trained configuration: the paper benches and the observability
// demo train a GraphPredictor configured here on recorded sequences and
// hand it to the control loop (exec::Executor).  A live stream has no
// offline data, so the loop's default predictor is one EWMA per node
// instead (see exec::Executor).
#pragma once

#include "app/stentboost.hpp"
#include "tripleC/graph_predictor.hpp"

namespace tc::model {

/// Configure a GraphPredictor with the paper's Table 2(b) model kinds:
/// EWMA+Markov for the data-dependent tasks (RDG_FULL, CPLS_SEL, GW_EXT),
/// Eq.3-linear+Markov for the granularity-driven RDG_ROI, constants for the
/// rest (MKX, REG, ROI_EST, ENH, ZOOM).
inline void configure_paper_kinds(GraphPredictor& gp) {
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

}  // namespace tc::model
