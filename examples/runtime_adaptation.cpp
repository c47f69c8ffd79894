// Runtime adaptation demo: the Triple-C loop (exec::Executor on the simulated
// platform) keeping the output latency constant while the scenario mix
// changes (contrast bolus arriving mid-sequence, marker dropouts, ROI
// acquisition/loss).
//
// Shows per-frame: the active scenario, the plan the loop chose, the
// prediction, the compute latency and the delivered output latency.
//
// Usage: runtime_adaptation [frames] [width]

#include <cstdio>
#include <cstdlib>

#include "app/stentboost.hpp"
#include "common/ascii_plot.hpp"
#include "common/stats.hpp"
#include "exec/executor.hpp"
#include "graph/scenario.hpp"
#include "trace/dataset.hpp"
#include "tripleC/paper_kinds.hpp"

using namespace tc;

int main(int argc, char** argv) {
  const i32 frames = argc > 1 ? std::atoi(argv[1]) : 120;
  const i32 size = argc > 2 ? std::atoi(argv[2]) : 256;

  std::printf("training the Triple-C predictors on 6 short sequences...\n");
  trace::DatasetParams tp;
  tp.sequences = 6;
  tp.frames_per_sequence = 52;
  tp.width = size;
  tp.height = size;
  trace::RecordedDataset dataset = trace::build_dataset(tp);
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  model::configure_paper_kinds(gp);
  gp.train(dataset.sequences);

  app::StentBoostConfig c = app::StentBoostConfig::make(size, size, frames, 99);
  c.sequence.contrast_in_frame = frames / 3;
  c.sequence.contrast_out_frame = (4 * frames) / 5;
  c.sequence.marker_dropout_prob = 0.03;
  exec::ExecutorConfig ec;
  ec.source = exec::MeasurementSource::Simulated;
  ec.policy = exec::DeadlinePolicy::Run;
  ec.warmup_frames = 10;
  ec.deadline_headroom = 1.10;
  exec::Executor loop(c, ec, gp);

  std::printf("\n%5s %-20s %-22s %8s %8s %8s\n", "frame", "scenario", "plan",
              "pred", "compute", "output");
  std::vector<std::string> names = loop.app().graph().switch_names();
  std::vector<f64> outputs;
  std::vector<f64> computes;
  for (i32 t = 0; t < frames; ++t) {
    const exec::ExecutedFrame f = loop.step(t);
    outputs.push_back(f.output_ms);
    computes.push_back(f.measured_ms);
    if (t % 5 == 0) {
      std::printf("%5d %-20s %-22s %8.1f %8.1f %8.1f\n", t,
                  graph::scenario_label(f.scenario, names).c_str(),
                  rt::plan_to_string(f.plan).c_str(), f.predicted_ms,
                  f.measured_ms, f.output_ms);
    }
  }

  std::printf("\nlatency budget: %.1f ms\n", loop.deadline_ms());
  std::printf("compute latency: mean %.1f ms, sigma %.2f\n", mean(computes),
              stddev(computes));
  std::printf("output latency:  mean %.1f ms, sigma %.2f (held constant by "
              "the delay line + repartitioning)\n",
              mean(outputs), stddev(outputs));

  std::vector<AsciiSeries> series{
      {"compute latency", computes, '*'},
      {"output latency", outputs, 'o'},
  };
  AsciiPlotOptions opt;
  opt.title = "runtime adaptation: latency vs frame";
  opt.x_label = "frame ->";
  std::printf("\n%s", render_ascii_plot(series, opt).c_str());
  return 0;
}
