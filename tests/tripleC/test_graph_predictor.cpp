#include "tripleC/graph_predictor.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace tc::model {
namespace {

/// Build synthetic FrameRecords for a 2-task, 2-switch graph:
/// task 0 runs every frame with AR(1) time; task 1 runs only when switch 0
/// is on (periodic), with constant time.
std::vector<graph::FrameRecord> synth_sequence(usize n, u64 seed) {
  Pcg32 rng(seed);
  std::vector<graph::FrameRecord> records;
  f64 r = 0.0;
  for (usize k = 0; k < n; ++k) {
    graph::FrameRecord rec;
    rec.frame = static_cast<i32>(k);
    bool sw0 = (k / 20) % 2 == 0;  // 20 frames on, 20 off
    rec.scenario = sw0 ? 1u : 0u;
    rec.roi_pixels = 100000.0;

    graph::TaskExecution t0;
    t0.node = 0;
    t0.executed = true;
    r = 0.8 * r + rng.normal(0.0, 1.0);
    t0.simulated_ms = 40.0 + r;
    rec.tasks.push_back(t0);

    graph::TaskExecution t1;
    t1.node = 1;
    t1.executed = sw0;
    t1.simulated_ms = sw0 ? 12.5 : 0.0;
    rec.tasks.push_back(t1);

    rec.latency_ms = t0.simulated_ms + t1.simulated_ms;
    records.push_back(std::move(rec));
  }
  return records;
}

TEST(GraphPredictor, TrainsPerTaskPredictors) {
  std::vector<std::vector<graph::FrameRecord>> seqs{synth_sequence(400, 1)};
  GraphPredictor gp(2, 2);
  PredictorConfig c;
  c.kind = PredictorKind::Constant;
  gp.configure_task(1, c);
  gp.train(seqs);
  EXPECT_TRUE(gp.task_predictor(0).trained());
  EXPECT_TRUE(gp.task_predictor(1).trained());
  EXPECT_NEAR(gp.predict_task(1), 12.5, 1e-9);
  EXPECT_NEAR(gp.predict_task(0), 40.0, 2.0);
}

TEST(GraphPredictor, ObserveImprovesTrackingOfTask0) {
  std::vector<std::vector<graph::FrameRecord>> seqs{synth_sequence(2000, 2)};
  GraphPredictor gp(2, 2);
  gp.train(seqs);

  auto test = synth_sequence(300, 3);
  f64 err_online = 0.0;
  f64 err_static = 0.0;
  f64 static_pred = gp.predict_task(0);
  for (const auto& rec : test) {
    err_online += std::fabs(gp.predict_task(0) - rec.tasks[0].simulated_ms);
    err_static += std::fabs(static_pred - rec.tasks[0].simulated_ms);
    gp.observe(rec);
  }
  EXPECT_LT(err_online, err_static);
}

TEST(GraphPredictor, ScenarioTableLearnsPeriodicSwitch) {
  std::vector<std::vector<graph::FrameRecord>> seqs{synth_sequence(800, 4)};
  GraphPredictor gp(2, 2);
  gp.train(seqs);
  // Scenario 1 mostly persists (19/20 transitions stay).
  EXPECT_GT(gp.scenario_table().probability(1, 1), 0.8);
  EXPECT_GT(gp.scenario_table().probability(0, 0), 0.8);
}

TEST(GraphPredictor, PredictScenarioFollowsObservation) {
  std::vector<std::vector<graph::FrameRecord>> seqs{synth_sequence(800, 5)};
  GraphPredictor gp(2, 2);
  gp.train(seqs);
  graph::FrameRecord rec;
  rec.scenario = 1u;
  gp.observe(rec);
  EXPECT_EQ(gp.predict_scenario(), 1u);
}

TEST(GraphPredictor, PredictScenarioWithoutHistoryIsZero) {
  GraphPredictor gp(2, 2);
  EXPECT_EQ(gp.predict_scenario(), 0u);
}

TEST(GraphPredictor, SkippedTasksDoNotPolluteTraining) {
  // Task 1 is skipped half the time with simulated_ms = 0 in the record;
  // its trained constant must be the *executed* mean, not dragged to 0.
  std::vector<std::vector<graph::FrameRecord>> seqs{synth_sequence(400, 6)};
  GraphPredictor gp(2, 2);
  PredictorConfig c;
  c.kind = PredictorKind::Constant;
  gp.configure_task(1, c);
  gp.train(seqs);
  EXPECT_NEAR(gp.predict_task(1), 12.5, 1e-9);
}

TEST(GraphPredictor, MultipleSequencesSupported) {
  std::vector<std::vector<graph::FrameRecord>> seqs{
      synth_sequence(200, 7), synth_sequence(200, 8), synth_sequence(200, 9)};
  GraphPredictor gp(2, 2);
  gp.train(seqs);
  EXPECT_TRUE(gp.task_predictor(0).trained());
  EXPECT_NEAR(gp.predict_task(0), 40.0, 3.0);
}

TEST(GraphPredictor, TaskCountAccessor) {
  GraphPredictor gp(10, 3);
  EXPECT_EQ(gp.task_count(), 10u);
}

TEST(GraphPredictor, ConstLookupsNeverCreatePredictors) {
  // Task 1 never runs (every frame has switch 0 off): asking a const
  // predictor about it predicts 0 ms and leaves no entry behind, also
  // under a context function that names a context nothing was fed under.
  GraphPredictor gp(2, 2);
  PredictorConfig c;
  c.kind = PredictorKind::Ewma;
  gp.configure_task(0, c);
  gp.configure_task(1, c);
  gp.set_context_fn([](const graph::FrameRecord*, i32 node) {
    return node == 0 ? 3u : 0u;
  });
  std::vector<graph::FrameRecord> seq = synth_sequence(60, 10);
  for (usize k = 20; k < 40; ++k) gp.observe(seq[k]);

  const GraphPredictor& view = gp;
  EXPECT_EQ(view.predict_task(1), 0.0);
  EXPECT_TRUE(view.contexts(1).empty());
  EXPECT_THROW((void)view.task_predictor(1), std::out_of_range);
  // Node 0 learnt under context 3 only; the untrained context predictor
  // falls back to context 0, which does not exist either.
  ASSERT_EQ(view.contexts(0), std::vector<u32>{3u});
  EXPECT_EQ(view.predict_task(0), 0.0);
  EXPECT_EQ(view.contexts(0), std::vector<u32>{3u});
}

}  // namespace
}  // namespace tc::model
