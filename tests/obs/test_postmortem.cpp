#include "obs/postmortem.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace tc::obs {
namespace {

namespace fs = std::filesystem;
using common::JsonValue;

PostmortemContext make_context() {
  PostmortemContext ctx;
  ctx.reason = "deadline_miss";
  ctx.frame = 42;
  ctx.deadline_ms = 16.0;
  ctx.predicted_ms = 14.5;
  ctx.measured_ms = 19.25;
  ctx.plan = "acq:2|proc:4";
  ctx.quality_level = 1;
  ctx.scenario = 3;
  ctx.predictors.nodes.push_back({"acq", 4.5, true});
  ctx.predictors.nodes.push_back({"ridge", 9.75, false});
  ctx.predictors.drift_errors_pct.emplace_back("frame_latency", 12.5);
  ctx.extra.emplace_back("policy", "degrade");
  return ctx;
}

TEST(BundleJson, ProducesParseableSelfContainedDocument) {
  FlightRecorder rec(64);
  rec.record(FrEventType::FrameStart, 42, -1, 14.5);
  rec.record(FrEventType::DeadlineMiss, 42, -1, 19.25, 16.0);
  MetricsRegistry metrics;
  metrics.counter("tripleC_test_total", "test counter").add(3.0);
  metrics
      .histogram("tripleC_test_ms", "test histogram",
                 std::vector<f64>{1.0, 10.0})
      .record(5.0);

  const std::vector<FlightEvent> events = rec.snapshot();
  const std::string doc = bundle_json(make_context(), events, metrics);
  const JsonValue root = JsonValue::parse(doc);

  EXPECT_EQ(root.string_or("format", ""), "triplec-postmortem-v1");
  EXPECT_EQ(root.string_or("reason", ""), "deadline_miss");
  EXPECT_EQ(static_cast<i32>(root.number_or("frame", -1)), 42);
  EXPECT_DOUBLE_EQ(root.number_or("deadline_ms", 0), 16.0);
  EXPECT_DOUBLE_EQ(root.number_or("measured_ms", 0), 19.25);
  EXPECT_EQ(root.string_or("plan", ""), "acq:2|proc:4");
  EXPECT_EQ(static_cast<i32>(root.number_or("quality_level", -1)), 1);
  EXPECT_EQ(static_cast<i32>(root.number_or("scenario", -1)), 3);
  EXPECT_EQ(root.get("extra").string_or("policy", ""), "degrade");

  const JsonValue& predictors = root.get("predictors");
  EXPECT_DOUBLE_EQ(
      predictors.get("drift_errors_pct").number_or("frame_latency", 0), 12.5);
  const JsonValue& nodes = predictors.get("nodes");
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes.at(0).string_or("name", ""), "acq");
  EXPECT_DOUBLE_EQ(nodes.at(1).number_or("predicted_ms", 0), 9.75);
  EXPECT_FALSE(nodes.at(1).get("active").as_bool());

  const JsonValue& embedded = root.get("events");
  ASSERT_EQ(embedded.size(), 2u);
  EXPECT_EQ(embedded.at(0).string_or("type", ""), "frame_start");
  EXPECT_EQ(embedded.at(1).string_or("type", ""), "deadline_miss");

  const JsonValue& series = root.get("metrics");
  ASSERT_TRUE(series.is_array());
  bool saw_counter = false;
  for (usize i = 0; i < series.size(); ++i) {
    if (series.at(i).string_or("name", "") == "tripleC_test_total") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(series.at(i).number_or("value", 0), 3.0);
    }
  }
  EXPECT_TRUE(saw_counter);
}

TEST(BundleJson, EscapesHostileStrings) {
  PostmortemContext ctx;
  ctx.reason = "slo_breach:\"p99\"\n";
  ctx.plan = "a\\b";
  ctx.extra.emplace_back("note", "tab\there");
  MetricsRegistry metrics;
  const std::string doc = bundle_json(ctx, {}, metrics);
  const JsonValue root = JsonValue::parse(doc);  // must not throw
  EXPECT_EQ(root.string_or("reason", ""), "slo_breach:\"p99\"\n");
  EXPECT_EQ(root.string_or("plan", ""), "a\\b");
  EXPECT_EQ(root.get("extra").string_or("note", ""), "tab\there");
}

class PostmortemWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tc_postmortem_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  FlightRecorder flight_{64};
  MetricsRegistry metrics_;
};

TEST_F(PostmortemWriterTest, EmptyDirectoryDisablesWriting) {
  PostmortemWriter writer;  // no directory
  const std::string path =
      writer.write(make_context(), flight_, metrics_);
  EXPECT_TRUE(path.empty());
  EXPECT_EQ(writer.bundles_written(), 0u);
}

TEST_F(PostmortemWriterTest, WritesReadableBundleAndTracksLastPath) {
  PostmortemWriter writer(dir_.string());
  flight_.record(FrEventType::DeadlineMiss, 42, -1, 19.25, 16.0);

  const std::string path = writer.write(make_context(), flight_, metrics_);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(writer.last_path(), path);
  EXPECT_EQ(writer.bundles_written(), 1u);
  ASSERT_TRUE(fs::exists(path));

  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const JsonValue root = JsonValue::parse(ss.str());
  EXPECT_EQ(root.string_or("format", ""), "triplec-postmortem-v1");
  EXPECT_EQ(static_cast<i32>(root.number_or("frame", -1)), 42);
  EXPECT_EQ(root.get("events").size(), 1u);
}

TEST_F(PostmortemWriterTest, RateLimitSuppressesAndForceBypasses) {
  PostmortemWriter writer(dir_.string());
  constexpr i32 kGap = PostmortemWriter::kMinFramesBetween;

  PostmortemContext ctx = make_context();
  ctx.frame = 0;
  EXPECT_FALSE(writer.write(ctx, flight_, metrics_).empty());
  ctx.frame = kGap / 2;  // inside the rate-limit window
  EXPECT_TRUE(writer.write(ctx, flight_, metrics_).empty());
  EXPECT_EQ(writer.suppressed(), 1u);
  // force bypasses the rate limit (explicit operator request)...
  EXPECT_FALSE(writer.write(ctx, flight_, metrics_, /*force=*/true).empty());
  // ...and a frame past the window writes normally again.
  ctx.frame = kGap / 2 + kGap;
  EXPECT_FALSE(writer.write(ctx, flight_, metrics_).empty());
  EXPECT_EQ(writer.bundles_written(), 3u);
}

TEST_F(PostmortemWriterTest, MaxBundlesCapsEvenForcedWrites) {
  PostmortemWriter writer(dir_.string());

  PostmortemContext ctx = make_context();
  for (u64 i = 0; i < PostmortemWriter::kMaxBundles + 3; ++i) {
    ctx.frame = static_cast<i32>(i);  // inside the rate limit: forced
    writer.write(ctx, flight_, metrics_, /*force=*/true);
  }
  EXPECT_EQ(writer.bundles_written(), PostmortemWriter::kMaxBundles);
  EXPECT_EQ(writer.suppressed(), 3u);
  u64 files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, PostmortemWriter::kMaxBundles);
}

TEST_F(PostmortemWriterTest, TrimsEmbeddedEventsToMaxEvents) {
  constexpr usize kMax = PostmortemWriter::kMaxEvents;
  PostmortemWriter writer(dir_.string());
  FlightRecorder flight(2 * kMax);
  for (i32 i = 0; i < static_cast<i32>(kMax) + 32; ++i) {
    flight.record(FrEventType::Custom, i);
  }

  const std::string path = writer.write(make_context(), flight, metrics_);
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const JsonValue root = JsonValue::parse(ss.str());
  const JsonValue& events = root.get("events");
  ASSERT_EQ(events.size(), kMax);
  // The newest kMax events survive the trim.
  for (usize i = 0; i < kMax; ++i) {
    EXPECT_EQ(static_cast<i32>(events.at(i).number_or("frame", -1)),
              32 + static_cast<i32>(i));
  }
}

TEST(BundleJson, EmbedsLedgerRows) {
  PostmortemContext ctx = make_context();
  LedgerRow row;
  row.frame = 42;
  row.node = 1;
  row.scenario = 3;
  row.stripes = 2;
  row.deadline_slack_ms = -3.25;
  row.pred_mask = row.meas_mask = ledger_bit(LedgerResource::CpuMs);
  row.pred[0] = 14.5;
  row.meas[0] = 19.25;
  ctx.ledger_rows.push_back(row);

  MetricsRegistry metrics;
  const JsonValue root = JsonValue::parse(bundle_json(ctx, {}, metrics));
  const JsonValue& ledger = root.get("ledger");
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(static_cast<i32>(ledger.at(0).number_or("frame", -1)), 42);
  EXPECT_EQ(static_cast<i32>(ledger.at(0).number_or("stripes", 0)), 2);
  EXPECT_DOUBLE_EQ(ledger.at(0).number_or("slack_ms", 0), -3.25);
  EXPECT_DOUBLE_EQ(ledger.at(0).get("pred").at(0).number_or(0), 14.5);
  EXPECT_DOUBLE_EQ(ledger.at(0).get("meas").at(0).number_or(0), 19.25);
}

}  // namespace
}  // namespace tc::obs
