// Parallel execution quickstart — the concurrent executor running the
// StentBoost graph for real, with live repartitioning and the full
// diagnostics stack (flight recorder, drift rule and SLO monitor,
// post-mortems).
//
// The exec::Executor predicts each frame's host latency (one EWMA per node,
// learnt online by model::GraphPredictor), picks a stripe plan that fits
// the deadline, runs the frame on its worker pool, and feeds the measured
// times back.  Scenario dynamics (ridge detection switching off, the pipeline
// entering ROI mode) move the prediction across the plan boundary, so the
// plan changes live — every repartition is visible as a "repartition"
// instant event in the exported Chrome trace (chrome://tracing or
// https://ui.perfetto.dev).
//
// On top of that, this run injects a load spike (a synthetic co-scheduled
// interferer burning extra wall-clock milliseconds for a few frames mid-run)
// that the predictors could not have seen coming.  The spiked frames miss
// the deadline and the executor drops a post-mortem bundle — render it with
//
//   tools/triplec_postmortem parallel_run_postmortems/postmortem_*.json
//
// Outputs: parallel_run_trace.json, parallel_run_metrics.prom,
//          parallel_run_postmortems/*.json

#include <cstdio>
#include <string>

#include "exec/executor.hpp"
#include "obs/obs.hpp"

using namespace tc;

int main() {
  obs::set_enabled(true);

  app::StentBoostConfig config =
      app::StentBoostConfig::make(/*width=*/256, /*height=*/256,
                                  /*frames=*/100, /*seed=*/21);

  exec::ExecutorConfig exec_config;
  exec_config.worker_threads = 4;
  exec_config.warmup_frames = 8;       // derive the deadline from these
  exec_config.deadline_headroom = 1.1; // tight: scenario swings force replans
  exec_config.policy = exec::DeadlinePolicy::Degrade;
  // Diagnostics: drift + SLO monitoring, bundles into a local directory.
  exec_config.postmortem_dir = "parallel_run_postmortems";
  // The injected interferer: frames 60..63 each lose 12 ms of wall clock to
  // a "co-scheduled" busy loop the predictors never observe in training.
  exec_config.load_spike.start_frame = 60;
  exec_config.load_spike.frames = 4;
  exec_config.load_spike.busy_ms = 12.0;
  exec::Executor executor(std::move(config), exec_config);

  std::printf("running 100 frames on %d workers (load spike at frames "
              "60..63)...\n",
              exec_config.worker_threads);
  const std::vector<exec::ExecutedFrame> frames = executor.run(100);

  std::printf("\n%6s %8s %10s %10s %6s %7s %s\n", "frame", "scen",
              "pred ms", "meas ms", "qual", "replan", "plan");
  for (const exec::ExecutedFrame& f : frames) {
    if (!f.repartitioned && !f.deadline_miss && f.frame % 10 != 0) {
      continue;  // keep it short
    }
    std::printf("%6d %8u %10.2f %10.2f %6d %7s %s%s\n", f.frame, f.scenario,
                f.predicted_ms, f.measured_ms, f.quality_level,
                f.repartitioned ? "yes" : "",
                rt::plan_to_string(f.plan).c_str(),
                f.deadline_miss ? "  << MISS" : "");
  }

  const exec::ExecutorStats stats = executor.stats();
  std::printf("\nframes=%d managed=%d misses=%d degraded=%d repartitions=%d\n",
              stats.frames, stats.managed_frames, stats.deadline_misses,
              stats.degraded_frames, stats.repartitions);
  std::printf("drift_alerts=%d slo_breaches=%d postmortems=%d\n",
              stats.drift_alerts, stats.slo_breaches, stats.postmortems);
  std::printf("deadline=%.2f ms, mean measured=%.2f ms\n",
              executor.deadline_ms(), stats.mean_measured_ms);
  std::printf("flight recorder: %zu live events on %zu threads\n",
              obs::global().flight.size(), obs::global().flight.thread_count());
  if (executor.postmortem_writer() != nullptr &&
      !executor.postmortem_writer()->last_path().empty()) {
    std::printf("last post-mortem bundle: %s\n",
                executor.postmortem_writer()->last_path().c_str());
  }

  obs::ObsContext& ctx = obs::global();
  if (obs::write_text_file("parallel_run_trace.json",
                           obs::chrome_trace_json(ctx))) {
    std::printf(
        "\nwrote parallel_run_trace.json — open in chrome://tracing\n");
  }
  if (obs::write_text_file("parallel_run_metrics.prom",
                           obs::to_prometheus(ctx.metrics))) {
    std::printf("wrote parallel_run_metrics.prom\n");
  }

  if (stats.repartitions == 0) {
    std::printf("warning: no live repartition happened this run\n");
    return 1;
  }
  if (stats.postmortems == 0) {
    std::printf("warning: the load spike produced no post-mortem bundle\n");
    return 1;
  }
  return 0;
}
