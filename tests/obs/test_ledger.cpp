// Prediction-ledger tests: calibration-window math (empty window, single
// sample, wraparound), predict/settle row matching, masks and percentage
// errors, coverage counters under concurrent writers (TSan target), the
// offline calibration report and the JSON/CSV dumps.
#include "obs/ledger.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace tc::obs {
namespace {

LedgerSample sample(i32 node, f64 cpu_ms) {
  LedgerSample s;
  s.node = node;
  s.mask = ledger_bit(LedgerResource::CpuMs);
  s.values[static_cast<usize>(LedgerResource::CpuMs)] = cpu_ms;
  return s;
}

LedgerSample full_sample(i32 node, f64 cpu_ms, f64 mem, f64 cache, f64 mem_bus,
                         f64 io) {
  LedgerSample s;
  s.node = node;
  s.mask = kLedgerAllResources;
  s.values = {cpu_ms, mem, cache, mem_bus, io};
  return s;
}

// --- CalibrationWindow ------------------------------------------------------

TEST(CalibrationWindow, EmptyWindowHasZeroStats) {
  CalibrationWindow w(8);
  const auto s = w.stats();
  EXPECT_EQ(s.samples, 0u);
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.bias_pct, 0.0);
  EXPECT_EQ(s.mean_ape_pct, 0.0);
  EXPECT_EQ(s.p50_ape_pct, 0.0);
  EXPECT_EQ(s.p95_ape_pct, 0.0);
  EXPECT_EQ(s.under_pct, 0.0);
  EXPECT_EQ(s.over_pct, 0.0);
}

TEST(CalibrationWindow, SingleSample) {
  CalibrationWindow w(8);
  w.add(-12.5);
  const auto s = w.stats();
  EXPECT_EQ(s.samples, 1u);
  EXPECT_DOUBLE_EQ(s.bias_pct, -12.5);
  EXPECT_DOUBLE_EQ(s.mean_ape_pct, 12.5);
  EXPECT_DOUBLE_EQ(s.p50_ape_pct, 12.5);
  EXPECT_DOUBLE_EQ(s.p95_ape_pct, 12.5);
  EXPECT_DOUBLE_EQ(s.under_pct, 1.0);  // pred < meas
  EXPECT_DOUBLE_EQ(s.over_pct, 0.0);
}

TEST(CalibrationWindow, WraparoundEvictsOldest) {
  CalibrationWindow w(4);
  // Fill with large positive errors, then overwrite them all with -1.
  for (i32 i = 0; i < 4; ++i) w.add(100.0);
  for (i32 i = 0; i < 4; ++i) w.add(-1.0);
  const auto s = w.stats();
  EXPECT_EQ(s.samples, 4u);
  EXPECT_EQ(s.total, 8u);
  EXPECT_DOUBLE_EQ(s.bias_pct, -1.0);
  EXPECT_DOUBLE_EQ(s.mean_ape_pct, 1.0);
  EXPECT_DOUBLE_EQ(s.p95_ape_pct, 1.0);
  EXPECT_DOUBLE_EQ(s.under_pct, 1.0);
}

TEST(CalibrationWindow, PartialWraparoundMixesOldAndNew) {
  CalibrationWindow w(4);
  for (i32 i = 0; i < 4; ++i) w.add(10.0);
  w.add(-10.0);  // overwrites exactly one old sample
  const auto s = w.stats();
  EXPECT_EQ(s.samples, 4u);
  EXPECT_EQ(s.total, 5u);
  EXPECT_DOUBLE_EQ(s.bias_pct, (3 * 10.0 - 10.0) / 4.0);
  EXPECT_DOUBLE_EQ(s.under_pct, 0.25);
  EXPECT_DOUBLE_EQ(s.over_pct, 0.75);
}

TEST(CalibrationWindow, UnboundedCapacityKeepsEverything) {
  CalibrationWindow w(0);
  for (i32 i = 0; i < 1000; ++i) w.add(static_cast<f64>(i % 7));
  EXPECT_EQ(w.stats().samples, 1000u);
  EXPECT_EQ(w.stats().total, 1000u);
}

TEST(CalibrationWindow, PercentilesUseAbsoluteErrors) {
  CalibrationWindow w(0);
  for (f64 e : {-50.0, -10.0, 5.0, 20.0}) w.add(e);
  const auto s = w.stats();
  // APEs sorted: 5, 10, 20, 50 -> p50 interpolates between 10 and 20.
  EXPECT_NEAR(s.mean_ape_pct, 21.25, 1e-9);
  EXPECT_NEAR(s.p50_ape_pct, 15.0, 1e-9);
  EXPECT_NEAR(s.p95_ape_pct, 45.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.under_pct, 0.5);
  EXPECT_DOUBLE_EQ(s.over_pct, 0.5);
}

// --- LedgerRow --------------------------------------------------------------

TEST(LedgerRow, ErrorPctNeedsBothSidesAndNonzeroMeasurement) {
  LedgerRow row;
  row.pred_mask = ledger_bit(LedgerResource::CpuMs);
  row.pred[0] = 12.0;
  EXPECT_FALSE(row.error_pct(LedgerResource::CpuMs).has_value());
  row.meas_mask = ledger_bit(LedgerResource::CpuMs);
  row.meas[0] = 10.0;
  ASSERT_TRUE(row.error_pct(LedgerResource::CpuMs).has_value());
  EXPECT_NEAR(*row.error_pct(LedgerResource::CpuMs), 20.0, 1e-9);
  row.meas[0] = 0.0;  // zero measurement: error undefined
  EXPECT_FALSE(row.error_pct(LedgerResource::CpuMs).has_value());
  EXPECT_FALSE(row.error_pct(LedgerResource::MemBytes).has_value());
}

TEST(LedgerResourceNames, RoundTrip) {
  for (i32 r = 0; r < kLedgerResourceCount; ++r) {
    const auto res = static_cast<LedgerResource>(r);
    const auto back = ledger_resource_from(to_string(res));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, res);
  }
  EXPECT_FALSE(ledger_resource_from("bogus").has_value());
}

// --- PredictionLedger -------------------------------------------------------

TEST(PredictionLedger, PredictThenSettleMatchesRows) {
  PredictionLedger ledger;
  const std::vector<i32> stripes = {2, 1};
  const std::vector<LedgerSample> preds = {sample(0, 10.0), sample(1, 5.0)};
  ledger.predict_frame(7, /*ticket=*/42, /*deadline_ms=*/20.0, stripes, preds);

  const std::vector<LedgerSample> actuals = {sample(0, 12.0), sample(1, 5.0)};
  const auto rows = ledger.settle_frame(7, /*scenario=*/3,
                                        /*measured_frame_ms=*/17.0, actuals);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].frame, 7);
  EXPECT_EQ(rows[0].node, 0);
  EXPECT_EQ(rows[0].scenario, 3u);
  EXPECT_EQ(rows[0].ticket, 42);
  EXPECT_EQ(rows[0].stripes, 2);
  EXPECT_DOUBLE_EQ(rows[0].deadline_ms, 20.0);
  EXPECT_DOUBLE_EQ(rows[0].deadline_slack_ms, 3.0);
  ASSERT_TRUE(rows[0].error_pct(LedgerResource::CpuMs).has_value());
  EXPECT_NEAR(*rows[0].error_pct(LedgerResource::CpuMs), -100.0 * 2 / 12, 1e-9);
  EXPECT_EQ(ledger.rows_settled(), 2u);
  EXPECT_EQ(ledger.rows().size(), 2u);
}

TEST(PredictionLedger, ActualOnlyNodeGetsPredLessRow) {
  PredictionLedger ledger;
  ledger.predict_frame(0, 0, 0.0, {}, std::vector<LedgerSample>{sample(2, 4.0)});
  const auto rows = ledger.settle_frame(
      0, 0, 9.0, std::vector<LedgerSample>{sample(2, 4.5), sample(5, 1.0)});
  ASSERT_EQ(rows.size(), 2u);
  const LedgerRow* extra = nullptr;
  for (const auto& r : rows) {
    if (r.node == 5) extra = &r;
  }
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(extra->pred_mask, 0u);
  EXPECT_TRUE(extra->has_meas(LedgerResource::CpuMs));
  EXPECT_FALSE(extra->error_pct(LedgerResource::CpuMs).has_value());
}

TEST(PredictionLedger, PredictedButNotExecutedKeepsMeasEmpty) {
  PredictionLedger ledger;
  ledger.predict_frame(0, 0, 0.0, {},
                       std::vector<LedgerSample>{sample(0, 3.0), sample(1, 2.0)});
  const auto rows =
      ledger.settle_frame(0, 0, 3.1, std::vector<LedgerSample>{sample(0, 3.1)});
  ASSERT_EQ(rows.size(), 2u);
  const LedgerRow* skipped = nullptr;
  for (const auto& r : rows) {
    if (r.node == 1) skipped = &r;
  }
  ASSERT_NE(skipped, nullptr);
  EXPECT_EQ(skipped->meas_mask, 0u);  // activity misprediction, no actuals
}

TEST(PredictionLedger, EvictsOldestOpenFrameBeyondCap) {
  PredictionLedger ledger;
  const i32 frames = static_cast<i32>(PredictionLedger::kMaxOpenFrames) + 3;
  for (i32 f = 0; f < frames; ++f) {
    ledger.predict_frame(f, f, 0.0, {},
                         std::vector<LedgerSample>{sample(0, 1.0)});
  }
  EXPECT_EQ(ledger.frames_lost(), 3u);
  // The surviving pending frames still settle normally.
  EXPECT_EQ(ledger.settle_frame(frames - 1, 0, 1.0, {}).size(), 1u);
}

TEST(PredictionLedger, RowRingEvictsOldestSettledRows) {
  LedgerConfig cfg;
  cfg.capacity = 3;
  PredictionLedger ledger(cfg);
  for (i32 f = 0; f < 5; ++f) {
    ledger.predict_frame(f, f, 0.0, {},
                         std::vector<LedgerSample>{sample(0, 1.0)});
    ledger.settle_frame(f, 0, 1.0,
                        std::vector<LedgerSample>{sample(0, 1.0)});
  }
  const auto rows = ledger.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.front().frame, 2);
  EXPECT_EQ(rows.back().frame, 4);
  EXPECT_EQ(ledger.rows_settled(), 5u);
  EXPECT_EQ(ledger.recent(2).size(), 2u);
  EXPECT_EQ(ledger.recent(2).front().frame, 3);
}

TEST(PredictionLedger, CalibrationStreamsPerNodeAndScenario) {
  PredictionLedger ledger;
  // Node 0 always over-predicts by 25%, node 1 under-predicts by 20%.
  for (i32 f = 0; f < 10; ++f) {
    ledger.predict_frame(
        f, f, 0.0, {},
        std::vector<LedgerSample>{sample(0, 12.5), sample(1, 8.0)});
    ledger.settle_frame(
        f, /*scenario=*/f % 2, 20.0,
        std::vector<LedgerSample>{sample(0, 10.0), sample(1, 10.0)});
  }
  const auto n0 = ledger.node_calibration(0, LedgerResource::CpuMs);
  EXPECT_EQ(n0.samples, 10u);
  EXPECT_NEAR(n0.bias_pct, 25.0, 1e-9);
  EXPECT_DOUBLE_EQ(n0.over_pct, 1.0);
  const auto n1 = ledger.node_calibration(1, LedgerResource::CpuMs);
  EXPECT_NEAR(n1.bias_pct, -20.0, 1e-9);
  EXPECT_DOUBLE_EQ(n1.under_pct, 1.0);
  // Scenario streams pool both nodes: bias is the mean of +25 and -20.
  const auto s0 = ledger.scenario_calibration(0, LedgerResource::CpuMs);
  EXPECT_EQ(s0.samples, 10u);
  EXPECT_NEAR(s0.bias_pct, 2.5, 1e-9);
  // Untouched streams read as empty.
  EXPECT_EQ(ledger.node_calibration(9, LedgerResource::CpuMs).samples, 0u);
  EXPECT_EQ(ledger.scenario_calibration(7, LedgerResource::CpuMs).samples, 0u);
}

TEST(PredictionLedger, ExportsMetricsGauges) {
  MetricsRegistry metrics;
  LedgerConfig cfg;
  PredictionLedger ledger(cfg, &metrics);
  ledger.predict_frame(0, 0, 0.0, {},
                       std::vector<LedgerSample>{sample(0, 11.0)});
  ledger.settle_frame(0, 2, 10.0,
                      std::vector<LedgerSample>{sample(0, 10.0)});
  bool found_bias = false;
  bool found_scenario = false;
  for (const auto& e : metrics.entries()) {
    if (e.name == "tripleC_ledger_bias_pct" &&
        e.labels.find("resource=\"cpu_ms\"") != std::string::npos) {
      found_bias = true;
      EXPECT_NEAR(e.gauge->value(), 10.0, 1e-9);
    }
    if (e.name == "tripleC_ledger_scenario_bias_pct" &&
        e.labels.find("scenario=\"2\"") != std::string::npos) {
      found_scenario = true;
    }
  }
  EXPECT_TRUE(found_bias);
  EXPECT_TRUE(found_scenario);
  // Row counter tracks settled rows.
  bool found_rows = false;
  for (const auto& e : metrics.entries()) {
    if (e.name == "tripleC_ledger_rows_total") {
      found_rows = true;
      EXPECT_DOUBLE_EQ(e.counter->value(), 1.0);
    }
  }
  EXPECT_TRUE(found_rows);
}

TEST(PredictionLedger, CoverageCountersUnderConcurrentWriters) {
  // Four threads predict+settle disjoint frame ranges; the coverage
  // counters and row totals must come out exact (TSan exercises the lock).
  PredictionLedger ledger;
  constexpr i32 kThreads = 4;
  constexpr i32 kFramesPerThread = 64;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (i32 w = 0; w < kThreads; ++w) {
    workers.emplace_back([&ledger, w] {
      for (i32 i = 0; i < kFramesPerThread; ++i) {
        const i32 frame = w * kFramesPerThread + i;
        // Node == writer thread: each stream has one writer's worth of
        // samples but all writers contend on the one ledger.
        ledger.predict_frame(frame, frame, 0.0, {},
                             std::vector<LedgerSample>{sample(w, 11.0)});
        ledger.settle_frame(frame, static_cast<u32>(w), 10.0,
                            std::vector<LedgerSample>{sample(w, 10.0)});
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(ledger.rows_settled(),
            static_cast<u64>(kThreads) * kFramesPerThread);
  for (i32 w = 0; w < kThreads; ++w) {
    const auto s = ledger.node_calibration(w, LedgerResource::CpuMs);
    EXPECT_EQ(s.total, static_cast<u64>(kFramesPerThread));
    EXPECT_DOUBLE_EQ(s.over_pct, 1.0);  // +10% every frame
    EXPECT_DOUBLE_EQ(s.under_pct, 0.0);
  }
}

TEST(PredictionLedger, DumpJsonRoundTripsThroughParser) {
  LedgerConfig cfg;
  cfg.node_name = [](i32 node) { return "task" + std::to_string(node); };
  PredictionLedger ledger(cfg);
  ledger.predict_frame(
      1, 5, 33.3, std::vector<i32>{3, 1},
      std::vector<LedgerSample>{full_sample(0, 10.0, 4096, 1.5, 0.5, 0.0)});
  ledger.settle_frame(
      1, 6, 30.0,
      std::vector<LedgerSample>{full_sample(0, 11.0, 4096, 1.4, 0.6, 0.0)});

  const auto doc = common::JsonValue::parse(ledger.dump_json());
  EXPECT_EQ(doc.string_or("format", ""), "triplec-ledger-v1");
  EXPECT_EQ(doc.get("nodes").string_or("0", ""), "task0");
  const auto& rows = doc.get("rows");
  ASSERT_EQ(rows.size(), 1u);
  const auto& row = rows.at(0);
  EXPECT_EQ(static_cast<i32>(row.number_or("frame", -1)), 1);
  EXPECT_EQ(static_cast<i32>(row.number_or("stripes", 0)), 3);
  EXPECT_EQ(static_cast<i32>(row.number_or("ticket", 0)), 5);
  EXPECT_NEAR(row.number_or("slack_ms", 0), 3.3, 1e-9);
  EXPECT_EQ(static_cast<u32>(row.number_or("pred_mask", 0)),
            kLedgerAllResources);
  EXPECT_NEAR(row.get("pred").at(0).number_or(0), 10.0, 1e-12);
  EXPECT_NEAR(row.get("meas").at(0).number_or(0), 11.0, 1e-12);
}

// --- offline report ---------------------------------------------------------

TEST(CalibrationReport, GroupsByNodeScenarioAndPair) {
  std::vector<LedgerRow> rows;
  auto push = [&rows](i32 frame, i32 node, u32 scenario, f64 pred, f64 meas) {
    LedgerRow r;
    r.frame = frame;
    r.node = node;
    r.scenario = scenario;
    r.pred_mask = r.meas_mask = ledger_bit(LedgerResource::CpuMs);
    r.pred[0] = pred;
    r.meas[0] = meas;
    rows.push_back(r);
  };
  // Node 0 is well-calibrated in scenario 0 but terrible in scenario 1.
  for (i32 f = 0; f < 4; ++f) push(f, 0, 0, 10.0, 10.0);
  for (i32 f = 4; f < 8; ++f) push(f, 0, 1, 30.0, 10.0);
  for (i32 f = 0; f < 8; ++f) push(f, 1, static_cast<u32>(f % 2), 10.5, 10.0);

  const CalibrationReport report = build_calibration_report(rows);
  EXPECT_EQ(report.rows, rows.size());
  EXPECT_EQ(report.frames, 8u);
  EXPECT_EQ(report.scenarios, 2u);
  ASSERT_EQ(report.per_node.size(), 2u);
  ASSERT_EQ(report.per_scenario.size(), 2u);
  ASSERT_EQ(report.per_node_scenario.size(), 4u);

  const auto worst = worst_calibrated(report, 2, LedgerResource::CpuMs,
                                      /*min_samples=*/3);
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0]->node, 0);
  EXPECT_EQ(worst[0]->scenario, 1);
  EXPECT_NEAR(worst[0]->res[0].p95_ape_pct, 200.0, 1e-9);
}

TEST(CalibrationReport, MinSamplesFiltersThinGroups) {
  std::vector<LedgerRow> rows;
  LedgerRow r;
  r.frame = 0;
  r.node = 0;
  r.scenario = 0;
  r.pred_mask = r.meas_mask = ledger_bit(LedgerResource::CpuMs);
  r.pred[0] = 99.0;
  r.meas[0] = 1.0;
  rows.push_back(r);
  const CalibrationReport report = build_calibration_report(rows);
  EXPECT_TRUE(worst_calibrated(report, 5, LedgerResource::CpuMs, 3).empty());
  EXPECT_EQ(worst_calibrated(report, 5, LedgerResource::CpuMs, 1).size(), 1u);
}

}  // namespace
}  // namespace tc::obs
