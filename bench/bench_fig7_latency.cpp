// Fig. 7 — prediction model vs. actual computation time over a 200-frame
// test sequence, comparing:
//   * the straightforward (always-serial) mapping — the paper's red curve,
//     60-120 ms with ~85% worst-vs-average variability;
//   * the semi-automatically parallelized run driven by Triple-C — the
//     yellow curve, jitter reduced ~70%, worst-vs-average gap ~20%;
//   * the Triple-C latency prediction itself.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "exec/executor.hpp"
#include "trace/dataset.hpp"
#include "tripleC/accuracy.hpp"
#include "tripleC/paper_kinds.hpp"

using namespace tc;

namespace {

app::StentBoostConfig test_sequence_config() {
  // A 200-frame test sequence with scenario switching: bolus in the middle,
  // occasional marker dropouts.
  app::StentBoostConfig c = app::StentBoostConfig::make(256, 256, 200, 777);
  c.sequence.contrast_in_frame = 60;
  c.sequence.contrast_out_frame = 150;
  c.sequence.marker_dropout_prob = 0.03;
  return c;
}

f64 worst_vs_avg_pct(std::span<const f64> xs) {
  if (xs.empty()) return 0.0;
  f64 avg = mean(xs);
  return (max_of(xs) - avg) / avg * 100.0;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 7 — prediction vs actual latency; straightforward vs semi-auto",
      "Albers et al., IPDPS 2009, Fig. 7 (jitter -70%, worst/avg 85%->20%)");

  // ---- offline training on a small multi-sequence dataset ----------------
  trace::DatasetParams tp;
  tp.sequences = 8;
  tp.frames_per_sequence = 52;
  tp.width = 256;
  tp.height = 256;
  std::printf("training on %d sequences x %d frames...\n\n", tp.sequences,
              tp.frames_per_sequence);
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  {
    bench::ScopedWallReport wall("offline training");
    trace::RecordedDataset dataset = trace::build_dataset(tp);
    model::configure_paper_kinds(gp);
    gp.train(dataset.sequences);
  }

  const i32 frames = 200;

  // ---- straightforward mapping (always serial) ---------------------------
  std::vector<f64> straightforward;
  {
    bench::ScopedWallReport wall("straightforward run");
    app::StentBoostApp serial_app(test_sequence_config());
    for (i32 t = 0; t < frames; ++t) {
      straightforward.push_back(serial_app.process_frame(t).latency_ms);
    }
  }

  // ---- semi-automatic parallelization driven by Triple-C -----------------
  std::vector<f64> managed;
  std::vector<f64> predicted;
  std::vector<f64> measured;
  i32 repartitions = 0;
  {
    exec::ExecutorConfig ec;
    ec.source = exec::MeasurementSource::Simulated;
    ec.policy = exec::DeadlinePolicy::Run;
    ec.warmup_frames = 10;
    // Budget exactly at the warm-up average and at most 2-way striping:
    // occasional overrun peaks stay visible, like the small peaks in the
    // paper's Fig. 7 (with 4-way striping the output pins perfectly).
    ec.deadline_headroom = 1.0;
    ec.max_stripes_per_task = 2;
    exec::Executor loop(test_sequence_config(), ec, gp);
    app::StripePlan last_plan = app::serial_plan();
    for (i32 t = 0; t < frames; ++t) {
      const exec::ExecutedFrame f = loop.step(t);
      if (t >= ec.warmup_frames) {
        managed.push_back(f.output_ms);
        predicted.push_back(f.predicted_ms);
        measured.push_back(f.measured_ms);
        if (f.plan != last_plan) ++repartitions;
        last_plan = f.plan;
      }
    }
    std::printf("latency budget (initialized close to average case): %.1f ms; "
                "%d repartitions over %zu frames\n\n",
                loop.deadline_ms(), repartitions, managed.size());
  }

  // ---- headline numbers ---------------------------------------------------
  std::printf("%-34s %8s %8s %8s %10s %12s\n", "series", "mean", "min", "max",
              "sigma", "worst/avg");
  auto row = [](const char* name, std::span<const f64> xs) {
    std::printf("%-34s %8.1f %8.1f %8.1f %10.2f %11.0f%%\n", name, mean(xs),
                min_of(xs), max_of(xs), stddev(xs), worst_vs_avg_pct(xs));
  };
  row("straightforward mapping [ms]", straightforward);
  row("semi-auto parallel (output) [ms]", managed);
  row("semi-auto parallel (compute) [ms]", measured);
  row("Triple-C prediction [ms]", predicted);

  f64 jitter_reduction =
      (1.0 - stddev(managed) / stddev(straightforward)) * 100.0;
  std::printf("\njitter reduction vs straightforward: %.0f%% "
              "(paper: ~70%%)\n",
              jitter_reduction);
  std::printf("worst-vs-average gap: straightforward %.0f%%, semi-auto %.0f%% "
              "(paper: 85%% -> 20%%)\n",
              worst_vs_avg_pct(straightforward), worst_vs_avg_pct(managed));
  model::AccuracyReport acc = model::evaluate_accuracy(predicted, measured);
  std::printf("prediction vs measured (managed run): %s\n\n",
              model::to_string(acc).c_str());

  std::vector<AsciiSeries> series{
      {"straightforward", straightforward, '*'},
      {"semi-auto parallel (output)", managed, 'o'},
      {"prediction", predicted, '.'},
  };
  AsciiPlotOptions opt;
  opt.title = "Fig. 7: effective latency vs frame";
  opt.x_label = "frame ->";
  std::printf("%s\n", render_ascii_plot(series, opt).c_str());

  CsvWriter csv("fig7_latency.csv");
  csv.header({"frame", "straightforward_ms", "managed_output_ms",
              "managed_measured_ms", "predicted_ms"});
  for (usize i = 0; i < managed.size(); ++i) {
    csv.cell(static_cast<u64>(i))
        .cell(straightforward[i + 10])
        .cell(managed[i])
        .cell(measured[i])
        .cell(predicted[i]);
    csv.end_row();
  }
  std::printf("series written to fig7_latency.csv\n");
  return 0;
}
