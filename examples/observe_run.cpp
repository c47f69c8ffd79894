// End-to-end observability demo: run the StentBoost clip under the runtime
// manager with the observability layer enabled, then export
//   * trace.json    — Chrome trace-event timeline (open in chrome://tracing
//                     or https://ui.perfetto.dev): frame/task/stripe spans on
//                     the simulated platform, spans and counters on the host;
//   * metrics.prom  — Prometheus text exposition of every tripleC_* metric;
//   * metrics.csv   — one row per frame (predicted/measured/output latency,
//                     prediction-error percent, plan width, QoS level);
// and print the ASCII latency dashboard.

#include <cstdio>

#include "obs/obs.hpp"
#include "runtime/manager.hpp"
#include "trace/dataset.hpp"
#include "tripleC/accuracy.hpp"
#include "tripleC/bandwidth_model.hpp"

using namespace tc;

namespace {

// The paper-kind predictor configuration (Table 2b) — same setup as the
// benches.
void configure_paper_kinds(model::GraphPredictor& gp) {
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
  gp.configure_task(app::kMkxRoi, cfg(PredictorKind::LinearMarkov));
  gp.configure_task(app::kCplsSel, cfg(PredictorKind::EwmaMarkov));
  gp.configure_task(app::kReg, cfg(PredictorKind::Constant));
  gp.configure_task(app::kRoiEst, cfg(PredictorKind::Constant));
  gp.configure_task(app::kGwExt, cfg(PredictorKind::EwmaMarkov));
  gp.configure_task(app::kEnh, cfg(PredictorKind::EwmaMarkov));
  gp.configure_task(app::kZoom, cfg(PredictorKind::Constant));
  gp.set_context_fn([](const graph::FrameRecord* prev, i32 node) -> u32 {
    if (node == app::kEnh) {
      return (prev != nullptr && ((prev->scenario >> app::kSwReg) & 1u) != 0)
                 ? 1u
                 : 0u;
    }
    return 0u;
  });
}

}  // namespace

int main() {
  std::printf("observe_run: StentBoost under the runtime manager with the\n"
              "observability layer enabled\n\n");

  // Offline training, done before enabling observability so the exported
  // metrics describe only the managed run.
  trace::DatasetParams tp;
  tp.sequences = 6;
  tp.frames_per_sequence = 48;
  tp.width = 256;
  tp.height = 256;
  trace::RecordedDataset dataset = trace::build_dataset(tp);
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  configure_paper_kinds(gp);
  gp.train(dataset.sequences);

  obs::set_enabled(true);
  obs::global().clear();

  // A 160-frame test clip with a contrast bolus and marker dropouts, run
  // under the manager with QoS enabled.
  app::StentBoostConfig config = app::StentBoostConfig::make(256, 256, 160, 99);
  config.sequence.contrast_in_frame = 50;
  config.sequence.contrast_out_frame = 120;
  config.sequence.marker_dropout_prob = 0.03;
  plat::ThreadPool pool(4);
  app::StentBoostApp app(config, &pool);

  // Ledger rows become the trace's "ledger <node> cpu_ms" counter tracks.
  obs::PredictionLedger ledger;
  gp.set_ledger(&ledger);

  rt::ManagerConfig mc;
  mc.warmup_frames = 10;
  mc.budget_headroom = 1.0;
  mc.max_stripes_per_task = 2;
  mc.enable_qos = true;
  rt::RuntimeManager mgr(app, gp, mc);

  const i32 frames = 160;
  std::vector<f64> predicted;
  std::vector<f64> measured;
  for (i32 t = 0; t < frames; ++t) {
    rt::ManagedFrame f = mgr.step(t);
    if (t >= mc.warmup_frames) {
      predicted.push_back(f.predicted_latency_ms);
      measured.push_back(f.measured_latency_ms);
    }
  }

  // Feed the bandwidth gauges and the accuracy gauges.
  (void)model::intertask_bandwidth(app.graph(), 30.0,
                                   config.cost.resolution_scale);
  model::AccuracyReport acc = model::evaluate_accuracy(predicted, measured);
  std::printf("managed run: %d frames, budget %.1f ms\n", frames,
              mgr.latency_budget_ms());
  std::printf("prediction vs measured: %s\n\n", model::to_string(acc).c_str());

  // ---- exports -----------------------------------------------------------
  obs::ObsContext& ctx = obs::global();
  const std::string trace_json = obs::chrome_trace_json(ctx);
  const std::string prom = obs::to_prometheus(ctx.metrics);
  const std::string csv = obs::frame_log_csv(ctx.frames);
  bool ok = obs::write_text_file("trace.json", trace_json) &&
            obs::write_text_file("metrics.prom", prom) &&
            obs::write_text_file("metrics.csv", csv);
  if (!ok) {
    std::fprintf(stderr, "failed to write export files\n");
    return 1;
  }
  std::printf("wrote trace.json   (%zu flight events; load in Perfetto)\n",
              ctx.flight.size());
  std::printf("wrote metrics.prom (%zu instruments)\n", ctx.metrics.size());
  std::printf("wrote metrics.csv  (%zu frame rows)\n\n", ctx.frames.size());

  std::printf("%s\n", obs::render_dashboard(ctx.metrics, ctx.frames).c_str());
  return 0;
}
