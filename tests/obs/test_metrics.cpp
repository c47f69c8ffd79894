#include "obs/metrics.hpp"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tc::obs {
namespace {

TEST(Counter, AddsAndResets) {
  Counter c;
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  c.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(Gauge, SetsLastValue) {
  Gauge g;
  g.set(7.0);
  g.set(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST(Histogram, BucketEdgesUseLessOrEqualSemantics) {
  Histogram h({1.0, 2.0, 4.0});
  h.record(1.0);   // == bound -> first bucket (le semantics)
  h.record(1.001); // -> second bucket
  h.record(4.0);   // == last finite bound -> third bucket
  h.record(4.001); // -> +Inf bucket
  h.record(-3.0);  // below everything -> first bucket
  std::vector<u64> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.001 + 4.0 + 4.001 - 3.0);
}

TEST(Histogram, PercentileInterpolatesWithinBucket) {
  Histogram h({10.0, 20.0, 30.0});
  // 10 samples in (10, 20]: percentiles interpolate across that bucket.
  for (i32 i = 0; i < 10; ++i) h.record(15.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 15.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 20.0);
}

TEST(Histogram, PercentileAcrossBuckets) {
  Histogram h({1.0, 2.0, 3.0, 4.0});
  for (f64 v : {0.5, 1.5, 2.5, 3.5}) h.record(v);
  // Rank p90 * 4 = 3.6 lands in the fourth bucket (3, 4].
  EXPECT_GT(h.p90(), 3.0);
  EXPECT_LE(h.p90(), 4.0);
  EXPECT_LE(h.p50(), 2.0);
}

TEST(Histogram, OverflowBucketClampsToLastBound) {
  Histogram h({1.0, 2.0});
  h.record(100.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 2.0);
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, InfBucketClampsEveryPercentile) {
  Histogram h({1.0, 8.0});
  // All mass in the +Inf bucket: no percentile may escape past the last
  // finite bound (a naive interpolation would divide by an infinite width).
  for (i32 i = 0; i < 100; ++i) h.record(1e9);
  for (f64 p : {0.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 8.0) << "p=" << p;
  }
  EXPECT_EQ(h.bucket_counts().back(), 100u);
}

TEST(Histogram, ResetRacesRecordWithoutCorruption) {
  // reset() may run while writers record(): totals after the dust settles
  // stay within the recorded range and nothing tears (TSan acceptance).
  Histogram h({1.0, 2.0, 4.0});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (i32 w = 0; w < 2; ++w) {
    writers.emplace_back([&h, &stop] {
      while (!stop.load(std::memory_order_relaxed)) h.record(1.5);
    });
  }
  for (i32 i = 0; i < 500; ++i) h.reset();
  stop.store(true);
  for (auto& t : writers) t.join();
  // Once quiescent, one more reset restores exact accounting: the racing
  // phase must not have corrupted any instrument state.
  h.reset();
  h.record(1.5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.5);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
}

TEST(MetricNames, GrammarMatchesPrometheus) {
  EXPECT_TRUE(valid_metric_name("tripleC_frame_ms"));
  EXPECT_TRUE(valid_metric_name("_private"));
  EXPECT_TRUE(valid_metric_name("ns:sub:metric_total"));
  EXPECT_TRUE(valid_metric_name("A9"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("9starts_with_digit"));
  EXPECT_FALSE(valid_metric_name("has-dash"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("trailing\n"));
  EXPECT_FALSE(valid_metric_name("uni\xc3\xa9"));
}

TEST(MetricNames, RegistrationRejectsInvalidNames) {
  MetricsRegistry r;
  EXPECT_THROW(r.counter("bad-name", "h"), std::invalid_argument);
  EXPECT_THROW(r.gauge("1bad", "h"), std::invalid_argument);
  EXPECT_THROW(r.histogram("bad name", "h", std::vector<f64>{1.0}),
               std::invalid_argument);
  EXPECT_EQ(r.size(), 0u);  // nothing half-registered
}

TEST(Labels, ValuesAreEscapedForExposition) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_label_value("back\\slash"), "back\\\\slash");
  EXPECT_EQ(escape_label_value("two\nlines"), "two\\nlines");
  EXPECT_EQ(label("task", "RDG_FULL"), "task=\"RDG_FULL\"");
  EXPECT_EQ(label("task", "a\"b\\c"), "task=\"a\\\"b\\\\c\"");
}

TEST(MetricsRegistry, SameNameAndLabelsReturnsSameInstrument) {
  MetricsRegistry r;
  Counter& a = r.counter("tripleC_x_total", "help");
  Counter& b = r.counter("tripleC_x_total", "help");
  EXPECT_EQ(&a, &b);
  Counter& labeled = r.counter("tripleC_x_total", "help", "task=\"A\"");
  EXPECT_NE(&a, &labeled);
  EXPECT_EQ(r.size(), 2u);
}

TEST(MetricsRegistry, ResetValuesKeepsInstrumentsValid) {
  MetricsRegistry r;
  Counter& c = r.counter("tripleC_c_total", "h");
  Histogram& h = r.histogram("tripleC_h_ms", "h", std::vector<f64>{1.0, 2.0});
  c.add(5.0);
  h.record(1.5);
  r.reset_values();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // The same references remain usable after the reset.
  c.add(1.0);
  h.record(0.5);
  EXPECT_DOUBLE_EQ(c.value(), 1.0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsRegistry, ConcurrentUpdatesAreExact) {
  MetricsRegistry r;
  Counter& c = r.counter("tripleC_con_total", "h");
  Histogram& h =
      r.histogram("tripleC_con_ms", "h", std::vector<f64>{0.5, 1.0, 2.0});
  constexpr i32 kThreads = 8;
  constexpr i32 kPerThread = 5000;
  std::vector<std::thread> threads;
  for (i32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (i32 i = 0; i < kPerThread; ++i) {
        c.add(1.0);
        h.record(0.75);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(c.value(), static_cast<f64>(kThreads * kPerThread));
  EXPECT_EQ(h.count(), static_cast<u64>(kThreads * kPerThread));
  EXPECT_EQ(h.bucket_counts()[1], static_cast<u64>(kThreads * kPerThread));
}

TEST(MetricsRegistry, ConcurrentRegistrationIsSafe) {
  MetricsRegistry r;
  std::vector<std::thread> threads;
  for (i32 t = 0; t < 8; ++t) {
    threads.emplace_back([&r] {
      for (i32 i = 0; i < 200; ++i) {
        r.counter("tripleC_shared_total", "h").add();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(r.size(), 1u);
  EXPECT_DOUBLE_EQ(r.entries()[0].counter->value(), 1600.0);
}

TEST(FrameLog, StoresSamplesInOrder) {
  FrameLog log;
  for (i32 i = 0; i < 5; ++i) {
    FrameSample s;
    s.frame = i;
    s.measured_ms = static_cast<f64>(i);
    log.add(s);
  }
  EXPECT_EQ(log.size(), 5u);
  std::vector<FrameSample> all = log.samples();
  EXPECT_EQ(all[3].frame, 3);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(FrameLog, CapacityBoundsKeepNewestSamples) {
  FrameLog log;
  const i32 total = static_cast<i32>(FrameLog::kCapacity) + 6;
  for (i32 i = 0; i < total; ++i) {
    FrameSample s;
    s.frame = i;
    log.add(s);
  }
  EXPECT_EQ(log.size(), FrameLog::kCapacity);
  EXPECT_EQ(log.total_added(), static_cast<u64>(total));
  const std::vector<FrameSample> all = log.samples();
  for (usize i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].frame, 6 + static_cast<i32>(i));
  }
}

}  // namespace
}  // namespace tc::obs
