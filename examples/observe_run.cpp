// End-to-end observability demo: run the StentBoost clip under the Triple-C
// loop (exec::Executor on the simulated platform) with the observability
// layer enabled, then export
//   * trace.json    — Chrome trace-event timeline (open in chrome://tracing
//                     or https://ui.perfetto.dev): frame/task/stripe spans on
//                     the simulated platform, spans and counters on the host;
//   * metrics.prom  — Prometheus text exposition of every tripleC_* metric;
//   * metrics.csv   — one row per frame (predicted/measured/output latency,
//                     prediction-error percent, plan width, QoS level);
// and print the ASCII latency dashboard.

#include <cstdio>

#include "exec/executor.hpp"
#include "obs/obs.hpp"
#include "trace/dataset.hpp"
#include "tripleC/accuracy.hpp"
#include "tripleC/bandwidth_model.hpp"
#include "tripleC/paper_kinds.hpp"

using namespace tc;

int main() {
  std::printf("observe_run: StentBoost under the Triple-C loop (simulated\n"
              "platform) with the observability layer enabled\n\n");

  // Offline training, done before enabling observability so the exported
  // metrics describe only the managed run.
  trace::DatasetParams tp;
  tp.sequences = 6;
  tp.frames_per_sequence = 48;
  tp.width = 256;
  tp.height = 256;
  trace::RecordedDataset dataset = trace::build_dataset(tp);
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  model::configure_paper_kinds(gp);
  gp.train(dataset.sequences);

  obs::set_enabled(true);
  obs::global().clear();

  // A 160-frame test clip with a contrast bolus and marker dropouts, run
  // under the loop with QoS degradation enabled.
  app::StentBoostConfig config = app::StentBoostConfig::make(256, 256, 160, 99);
  config.sequence.contrast_in_frame = 50;
  config.sequence.contrast_out_frame = 120;
  config.sequence.marker_dropout_prob = 0.03;

  exec::ExecutorConfig ec;
  ec.source = exec::MeasurementSource::Simulated;
  ec.policy = exec::DeadlinePolicy::Degrade;
  ec.warmup_frames = 10;
  ec.deadline_headroom = 1.0;
  ec.max_stripes_per_task = 2;
  // Ledger rows become the trace's "ledger <node> cpu_ms" counter tracks;
  // metrics.prom keeps the loop's own instruments only.
  ec.ledger.enabled = true;
  ec.ledger.export_metrics = false;
  exec::Executor loop(config, ec, gp);

  const i32 frames = 160;
  std::vector<f64> predicted;
  std::vector<f64> measured;
  for (i32 t = 0; t < frames; ++t) {
    const exec::ExecutedFrame f = loop.step(t);
    if (t >= ec.warmup_frames) {
      predicted.push_back(f.predicted_ms);
      measured.push_back(f.measured_ms);
    }
  }

  // Feed the bandwidth gauges and the accuracy gauges.
  (void)model::intertask_bandwidth(loop.app().graph(), 30.0,
                                   config.cost.resolution_scale);
  model::AccuracyReport acc = model::evaluate_accuracy(predicted, measured);
  std::printf("managed run: %d frames, budget %.1f ms\n", frames,
              loop.deadline_ms());
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
