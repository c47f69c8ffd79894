// Self-tests of the benchmark harness: the arrival clock, the percentile
// helper and the bounded span buffer.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "open_loop.hpp"
#include "span_buffer.hpp"
#include "stats.hpp"

namespace tcbench {
namespace {

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

TEST(OpenLoop, SlowStepShowsLatencyGrowingWithFrameIndex) {
  // A 10 ms step offered every 5 ms: each frame waits behind all earlier
  // ones, so latency grows by about 5 ms per frame.  A closed-loop timer
  // (step time only) would report a flat 10 ms.
  const OpenLoopResult r = run_open_loop(20, 5.0, [](int) { sleep_ms(10.0); });
  ASSERT_EQ(r.frames.size(), 20u);
  for (std::size_t i = 1; i < r.frames.size(); ++i) {
    EXPECT_GT(r.frames[i].latency_ms(), r.frames[i - 1].latency_ms());
  }
  EXPECT_GT(r.frames.back().latency_ms(), r.frames.front().latency_ms() + 80.0);
  EXPECT_GT(r.frames.back().queue_wait_ms(), 80.0);
}

TEST(OpenLoop, FastStepShowsLatencyNearStepTime) {
  const OpenLoopResult r = run_open_loop(20, 10.0, [](int) { sleep_ms(2.0); });
  for (const FrameTiming& f : r.frames) {
    EXPECT_GE(f.latency_ms(), 2.0);
    EXPECT_LT(f.latency_ms(), 6.0);
    EXPECT_LT(f.queue_wait_ms(), 4.0);
  }
  // Arrivals keep their schedule: the last frame is due at 19 periods.
  EXPECT_NEAR(r.frames.back().due_ms, 190.0, 1e-6);
}

TEST(OpenLoop, ClosedLoopHasNoQueueWait) {
  const OpenLoopResult r = run_open_loop(5, 0.0, [](int) { sleep_ms(2.0); });
  for (const FrameTiming& f : r.frames) EXPECT_LT(f.queue_wait_ms(), 1.0);
}

TEST(Samples, ReportsCountAndRefusesThinTails) {
  Samples s;
  for (int i = 1; i <= 199; ++i) s.add(i);
  EXPECT_EQ(s.count(), 199u);
  // p95 of 199 samples has only 9 samples beyond it.
  EXPECT_EQ(s.beyond(0.95), 9u);
  EXPECT_FALSE(s.percentile(0.95).has_value());
  s.add(200);
  EXPECT_EQ(s.beyond(0.95), 10u);
  ASSERT_TRUE(s.percentile(0.95).has_value());
  EXPECT_DOUBLE_EQ(*s.percentile(0.95), 190.0);
  EXPECT_DOUBLE_EQ(*s.percentile(0.5), 100.0);
}

TEST(Samples, MedianNeedsTwentySamples) {
  Samples s;
  for (int i = 0; i < 19; ++i) s.add(i);
  EXPECT_FALSE(s.percentile(0.5).has_value());
  s.add(19);
  EXPECT_TRUE(s.percentile(0.5).has_value());
  Samples empty;
  EXPECT_FALSE(empty.percentile(0.5).has_value());
}

TEST(SpanBuffer, OverflowDropsAndCountsWithoutGrowing) {
  SpanBuffer buf(4);
  const Span* storage = buf.data();
  for (int i = 0; i < 10; ++i) {
    const ScopedSpan span(&buf, "x", i);
    if (i < 4) {
      EXPECT_EQ(span.id(), i);
    } else {
      EXPECT_EQ(span.id(), -1);
    }
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.capacity(), 4u);
  EXPECT_EQ(buf.dropped(), 6u);
  EXPECT_EQ(buf.data(), storage);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf.at(i).frame, static_cast<int>(i));
    EXPECT_GE(buf.at(i).end_us, buf.at(i).start_us);
  }
}

TEST(SpanBuffer, ParentsAndChromeJson) {
  SpanBuffer buf(8);
  {
    const ScopedSpan outer(&buf, "outer", 7);
    const ScopedSpan inner(&buf, "inner", 7, outer.id());
  }
  EXPECT_EQ(buf.at(1).parent, 0);
  const std::string json = buf.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
}

TEST(SpanBuffer, NullBufferRecordsNothing) {
  const ScopedSpan span(nullptr, "x", 0);
  EXPECT_EQ(span.id(), -1);
}

}  // namespace
}  // namespace tcbench
