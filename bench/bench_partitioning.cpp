// Partitioning ablation — data-parallel vs. function-parallel (pipelined)
// vs. hybrid mappings of the StentBoost graph (paper §6, which points to
// van der Tol et al. [17] for this comparison).
//
// For each strategy: end-to-end frame latency, sustained throughput
// (pipeline initiation interval), and CPU usage, evaluated on the forecast
// of the expensive full-frame scenario.

#include <cstdio>

#include "bench_util.hpp"
#include "runtime/pipeline_schedule.hpp"
#include "trace/dataset.hpp"

using namespace tc;

int main() {
  bench::print_header(
      "Partitioning ablation — data-parallel vs functional vs hybrid",
      "Albers et al., IPDPS 2009, Section 6 (cf. van der Tol et al. [17])");

  // Forecast from a short full-frame training run (serial times).
  trace::DatasetParams tp;
  tp.sequences = 2;
  tp.frames_per_sequence = 40;
  tp.width = 256;
  tp.height = 256;
  trace::RecordedDataset data = trace::build_dataset(tp);
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  model::configure_paper_kinds(gp);
  gp.train(data.sequences);

  std::vector<rt::NodeForecast> fc(app::kNodeCount);
  // Full-frame, registration-successful scenario (the worst case).
  for (i32 node : {app::kRdgFull, app::kMkxFull, app::kCplsSel, app::kReg,
                   app::kRoiEst, app::kGwExt, app::kEnh, app::kZoom}) {
    fc[static_cast<usize>(node)].active = true;
    fc[static_cast<usize>(node)].data_parallel = app::node_data_parallel(node);
    fc[static_cast<usize>(node)].serial_ms = gp.predict_task(
        node, 1024.0 * 1024.0);
  }

  plat::CostParams params;
  std::printf("per-task serial forecast (full-frame scenario):\n ");
  for (i32 node = 0; node < app::kNodeCount; ++node) {
    if (!fc[static_cast<usize>(node)].active) continue;
    std::printf(" %s=%.1f", std::string(app::node_name(node)).c_str(),
                fc[static_cast<usize>(node)].serial_ms);
  }
  std::printf(" [ms]\n\n");

  struct Strategy {
    const char* name;
    std::vector<rt::PipelineStage> stages;
  };
  std::vector<Strategy> strategies;
  strategies.push_back({"serial (1 CPU)", rt::data_parallel_mapping(1)});
  strategies.push_back({"data-parallel x2", rt::data_parallel_mapping(2)});
  strategies.push_back({"data-parallel x4", rt::data_parallel_mapping(4)});
  strategies.push_back({"data-parallel x8", rt::data_parallel_mapping(8)});
  strategies.push_back({"functional 1+1+1", rt::functional_mapping(1, 1)});
  strategies.push_back({"functional 2+1+1", rt::functional_mapping(2, 1)});
  strategies.push_back({"hybrid 4+1+2", rt::functional_mapping(4, 2)});
  strategies.push_back({"hybrid 4+1+3", rt::functional_mapping(4, 3)});

  std::printf("%-20s %8s %12s %12s %8s\n", "strategy", "cpus", "latency ms",
              "thruput Hz", "30Hz?");
  for (const Strategy& s : strategies) {
    rt::PipelineAnalysis a = rt::analyze_pipeline(params, s.stages, fc);
    std::printf("%-20s %8d %12.2f %12.1f %8s\n", s.name, a.total_cpus,
                a.latency_ms, a.throughput_hz,
                a.throughput_hz >= 30.0 ? "yes" : "no");
  }

  std::printf("\ndetail of the hybrid 4+1+2 mapping:\n");
  auto stages = rt::functional_mapping(4, 2);
  rt::PipelineAnalysis a = rt::analyze_pipeline(params, stages, fc);
  std::printf("%s", rt::format_pipeline_table(stages, a).c_str());

  std::printf(
      "\nShape (matches the paper's discussion): data partitioning lowers\n"
      "*latency* — crucial for the eye-hand coordination requirement —\n"
      "while functional pipelining raises *throughput* per CPU but adds\n"
      "handoff latency; the streaming tasks (RDG, MKX, ENH, ZOOM) stripe,\n"
      "the feature tasks (CPLS_SEL, GW_EXT) need functional placement.\n");
  return 0;
}
