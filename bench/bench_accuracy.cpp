// §7 headline numbers — prediction accuracy of Triple-C:
//   * computation time: the paper reports 97% average accuracy with
//     sporadic excursions of the error up to 20-30%;
//   * cache-memory and communication-bandwidth: the paper reports 90%.
//
// Protocol: train on the first part of the synthetic dataset (the paper
// trains on 37 sequences / 1921 frames), evaluate on held-out sequences by
// online replay (predict before each frame, observe after).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "trace/dataset.hpp"
#include "tripleC/accuracy.hpp"

using namespace tc;

namespace {

/// Replay one recorded sequence through the predictor: per executed task,
/// record prediction (before) and measurement (after).
void replay(model::GraphPredictor& gp,
            const std::vector<graph::FrameRecord>& seq,
            std::map<i32, std::vector<f64>>& pred,
            std::map<i32, std::vector<f64>>& meas) {
  gp.reset_online_state();
  for (const graph::FrameRecord& rec : seq) {
    for (const graph::TaskExecution& exec : rec.tasks) {
      if (!exec.executed) continue;
      pred[exec.node].push_back(gp.predict_task(exec.node, rec.roi_pixels));
      meas[exec.node].push_back(exec.simulated_ms);
    }
    gp.observe(rec);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const i32 sequences = argc > 1 ? std::atoi(argv[1]) : 37;
  bench::print_header(
      "Section 7 — Triple-C prediction accuracy (computation / memory+bw)",
      "Albers et al., IPDPS 2009: 97% computation, 90% memory/bandwidth");

  trace::DatasetParams params;
  params.sequences = sequences;
  params.frames_per_sequence = 52;
  params.width = 256;
  params.height = 256;
  std::printf("dataset: %d sequences x %d frames (%d total; paper: 37 / "
              "1921)\n",
              params.sequences, params.frames_per_sequence,
              params.sequences * params.frames_per_sequence);
  trace::RecordedDataset dataset = trace::build_dataset(params);

  const usize train_count = dataset.sequences.size() * 3 / 4;
  std::vector<std::vector<graph::FrameRecord>> train(
      dataset.sequences.begin(),
      dataset.sequences.begin() + static_cast<i64>(train_count));
  std::vector<std::vector<graph::FrameRecord>> test(
      dataset.sequences.begin() + static_cast<i64>(train_count),
      dataset.sequences.end());
  std::printf("split: %zu training / %zu held-out sequences\n\n", train.size(),
              test.size());

  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  model::configure_paper_kinds(gp);
  gp.train(train);

  // ---- computation-time accuracy -----------------------------------------
  std::map<i32, std::vector<f64>> pred;
  std::map<i32, std::vector<f64>> meas;
  for (const auto& seq : test) replay(gp, seq, pred, meas);

  std::printf("per-task computation-time accuracy on held-out sequences:\n");
  std::printf("  %-10s %8s %9s %9s %12s %9s\n", "task", "frames", "acc %",
              "MAPE %", "max err %", ">20%");
  std::vector<f64> all_pred;
  std::vector<f64> all_meas;
  for (i32 node = 0; node < app::kNodeCount; ++node) {
    auto it = pred.find(node);
    if (it == pred.end() || it->second.empty()) continue;
    model::AccuracyReport r =
        model::evaluate_accuracy(it->second, meas[node]);
    std::printf("  %-10s %8zu %9.1f %9.1f %12.1f %8.1f%%\n",
                std::string(app::node_name(node)).c_str(), r.samples,
                r.mean_accuracy_pct, r.mape_pct, r.max_error_pct,
                r.excursions_over_20_pct * 100.0);
    all_pred.insert(all_pred.end(), it->second.begin(), it->second.end());
    all_meas.insert(all_meas.end(), meas[node].begin(), meas[node].end());
  }
  model::AccuracyReport total = model::evaluate_accuracy(all_pred, all_meas);
  std::printf("\n  OVERALL computation-time accuracy: %.1f%% "
              "(paper: ~97%%), max excursion %.0f%%, >20%% on %.1f%% of "
              "samples (paper: sporadic 20-30%% excursions)\n\n",
              total.mean_accuracy_pct, total.max_error_pct,
              total.excursions_over_20_pct * 100.0);

  // ---- memory / bandwidth accuracy ---------------------------------------
  // The analytical memory model predicts per-task buffer footprints and
  // traffic from the scenario and granularity; accuracy is measured against
  // the actual per-frame WorkReport bytes on the held-out sequences.
  // Predictor: mean footprint/traffic per (task, granularity bucket) from
  // the training set (the paper's analysis is likewise scenario-level).
  std::map<i32, std::map<i64, RunningStats>> footprint_model;
  auto bucket_of = [](f64 roi_pixels) {
    return static_cast<i64>(roi_pixels / 20000.0);  // 20 Kpixel buckets
  };
  for (const auto& seq : train) {
    for (const graph::FrameRecord& rec : seq) {
      for (const graph::TaskExecution& exec : rec.tasks) {
        // Like the paper's Table 1 analysis, only array-processing tasks
        // count ("tasks that operate on feature data are negligible in
        // terms of memory consumption").
        if (!exec.executed || !app::node_data_parallel(exec.node)) continue;
        footprint_model[exec.node][bucket_of(rec.roi_pixels)].add(
            static_cast<f64>(exec.work.footprint_bytes() +
                             exec.work.bytes_read + exec.work.bytes_written));
      }
    }
  }
  std::vector<f64> mem_pred;
  std::vector<f64> mem_meas;
  for (const auto& seq : test) {
    for (const graph::FrameRecord& rec : seq) {
      for (const graph::TaskExecution& exec : rec.tasks) {
        if (!exec.executed || !app::node_data_parallel(exec.node)) continue;
        auto& buckets = footprint_model[exec.node];
        auto it = buckets.find(bucket_of(rec.roi_pixels));
        if (it == buckets.end() || it->second.count() == 0) continue;
        mem_pred.push_back(it->second.mean());
        mem_meas.push_back(
            static_cast<f64>(exec.work.footprint_bytes() +
                             exec.work.bytes_read + exec.work.bytes_written));
      }
    }
  }
  model::AccuracyReport mem = model::evaluate_accuracy(mem_pred, mem_meas);
  std::printf("memory + bandwidth accuracy (scenario-level buffer/traffic "
              "model vs measured bytes): %.1f%% (paper: ~90%%), over %zu "
              "task-frames\n",
              mem.mean_accuracy_pct, mem.samples);
  return 0;
}
