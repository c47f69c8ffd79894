// Resource reservation — the paper's motivating aim: "our aim is to execute
// more functions on the same platform".  A worst-case static partitioning
// must reserve CPUs for the most expensive frame ever; Triple-C reserves
// per frame what the prediction says is needed, freeing the rest of the
// platform for other functions (§6: "it is impossible to exploit the
// difference between average-case and worst-case requirements" with the
// static approach).
//
// Metric: CPU occupancy in CPU-milliseconds per frame period (33.3 ms at
// 30 Hz) on the 8-CPU platform, for
//   * worst-case static reservation (CPUs held whether used or not),
//   * Triple-C dynamic reservation (stripe plan chosen per frame).

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "exec/executor.hpp"
#include "trace/dataset.hpp"
#include "tripleC/paper_kinds.hpp"

using namespace tc;

int main() {
  bench::print_header(
      "Resource reservation — worst-case static vs Triple-C dynamic",
      "Albers et al., IPDPS 2009, Sections 1 and 6 ('execute more functions"
      " on the same platform')");

  // Train.
  trace::DatasetParams tp;
  tp.sequences = 8;
  tp.frames_per_sequence = 52;
  tp.width = 256;
  tp.height = 256;
  trace::RecordedDataset data = trace::build_dataset(tp);
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  model::configure_paper_kinds(gp);
  gp.train(data.sequences);

  // Worst-case per-task serial times over the training set.
  std::vector<f64> worst(app::kNodeCount, 0.0);
  for (const auto& seq : data.sequences) {
    for (const graph::FrameRecord& rec : seq) {
      for (const graph::TaskExecution& exec : rec.tasks) {
        if (exec.executed) {
          worst[static_cast<usize>(exec.node)] =
              std::max(worst[static_cast<usize>(exec.node)],
                       exec.simulated_ms);
        }
      }
    }
  }

  // Static worst-case design: find the smallest uniform stripe width whose
  // worst-case latency meets the budget, and reserve that many CPUs for the
  // whole session.
  const plat::PlatformSpec spec = plat::PlatformSpec::paper_platform();
  const f64 frame_period_ms = 1000.0 / 30.0;
  app::StentBoostConfig test_cfg =
      app::StentBoostConfig::make(256, 256, 200, 777);
  test_cfg.sequence.contrast_in_frame = 60;
  test_cfg.sequence.contrast_out_frame = 150;
  const plat::CostParams& params = test_cfg.cost;

  auto worst_latency = [&](i32 stripes) {
    f64 total = 0.0;
    for (i32 node = 0; node < app::kNodeCount; ++node) {
      if (worst[static_cast<usize>(node)] <= 0.0) continue;
      // The static design reserves for the scenario where everything runs.
      if (node == app::kRdgRoi || node == app::kMkxRoi) continue;
      i32 s = app::node_data_parallel(node) ? stripes : 1;
      total += plat::striped_ms_from_serial(params, worst[static_cast<usize>(node)], s);
    }
    return total;
  };

  // Budget: the average-case latency of a serial run plus 10% (the same
  // initialization the runtime manager uses).
  f64 avg_serial = 0.0;
  {
    app::StentBoostApp probe(test_cfg);
    std::vector<f64> lat;
    for (i32 t = 0; t < 30; ++t) lat.push_back(probe.process_frame(t).latency_ms);
    avg_serial = mean(lat) * 1.10;
  }

  i32 static_cpus = spec.cpu_count;
  for (i32 s = 1; s <= spec.cpu_count; ++s) {
    if (worst_latency(s) <= avg_serial) {
      static_cpus = s;
      break;
    }
  }
  std::printf("latency budget (average case +10%%): %.1f ms\n", avg_serial);
  std::printf("worst-case per-task times: RDG_FULL %.1f, MKX_FULL %.1f, ENH "
              "%.1f, ZOOM %.1f ms\n",
              worst[app::kRdgFull], worst[app::kMkxFull], worst[app::kEnh],
              worst[app::kZoom]);
  std::printf("static worst-case design reserves %d of %d CPUs, all frames\n\n",
              static_cpus, spec.cpu_count);

  // Triple-C dynamic run: account actually-occupied CPU-milliseconds.
  exec::ExecutorConfig ec;
  ec.source = exec::MeasurementSource::Simulated;
  ec.policy = exec::DeadlinePolicy::Run;
  ec.warmup_frames = 10;
  ec.deadline_headroom = 1.10;
  exec::Executor loop(test_cfg, ec, gp);
  std::vector<f64> used_cpu_ms;
  std::vector<f64> used_cpus_equiv;
  for (i32 t = 0; t < 200; ++t) {
    const exec::ExecutedFrame f = loop.step(t);
    if (t < ec.warmup_frames) continue;
    f64 cpu_ms = 0.0;
    for (i32 node = 0; node < app::kNodeCount; ++node) {
      const i32 stripes = app::node_data_parallel(node)
                              ? f.plan[static_cast<usize>(node)]
                              : 1;
      cpu_ms += f.task_ms[static_cast<usize>(node)] * static_cast<f64>(stripes);
    }
    used_cpu_ms.push_back(cpu_ms);
    used_cpus_equiv.push_back(cpu_ms / frame_period_ms);
  }

  const f64 static_reserved_cpu_ms =
      static_cast<f64>(static_cpus) * frame_period_ms;
  std::printf("per-frame CPU occupancy (frame period %.1f ms):\n",
              frame_period_ms);
  std::printf("  static worst-case reservation: %.1f CPU-ms (%.2f CPUs), "
              "every frame\n",
              static_reserved_cpu_ms, static_cast<f64>(static_cpus));
  std::printf("  Triple-C dynamic:              mean %.1f CPU-ms (%.2f CPUs),"
              " p95 %.1f CPU-ms\n",
              mean(used_cpu_ms), mean(used_cpus_equiv),
              percentile(used_cpu_ms, 95));

  f64 freed = static_cast<f64>(spec.cpu_count) - mean(used_cpus_equiv);
  f64 freed_vs_static = static_cast<f64>(static_cpus) - mean(used_cpus_equiv);
  std::printf("\nplatform capacity freed for other functions:\n");
  std::printf("  vs the full platform:          %.1f of %d CPUs (%.0f%%)\n",
              freed, spec.cpu_count,
              freed / static_cast<f64>(spec.cpu_count) * 100.0);
  std::printf("  vs the worst-case reservation: %.1f of %d CPUs (%.0f%%)\n",
              freed_vs_static, static_cpus,
              freed_vs_static / std::max(1.0, static_cast<f64>(static_cpus)) *
                  100.0);
  std::printf(
      "\nShape check: the worst-case design pins several CPUs permanently;\n"
      "Triple-C occupies only the predicted need per frame, leaving most of\n"
      "the machine available — the paper's motivation for dynamic,\n"
      "prediction-driven resource management.\n");
  return 0;
}
