#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/ledger.hpp"
#include "obs/slo.hpp"
#include "tripleC/markov.hpp"

namespace tc::obs {
namespace {

// Drift monitoring: the drift rule over a 64-sample calibration window of
// signed predicted-vs-measured errors, as the executor keeps per frame.
class DriftStream {
 public:
  /// Score one frame; true when the rule fires on it.
  bool observe(f64 predicted_ms, f64 measured_ms) {
    const std::optional<f64> err =
        relative_error_pct(predicted_ms, measured_ms);
    if (!err.has_value()) return false;
    window_.add(*err);
    return rule_.crossed(window_.stats());
  }
  [[nodiscard]] f64 mean_ape_pct() const {
    return window_.stats().mean_ape_pct;
  }

 private:
  CalibrationWindow window_{64};
  DriftRule rule_;
};

TEST(DriftMonitor, AccurateStreamStaysQuiet) {
  DriftStream s;
  for (i32 t = 0; t < 300; ++t) {
    const f64 measured = 10.0 + 0.2 * std::sin(t * 0.3);
    EXPECT_FALSE(s.observe(10.0, measured));
  }
  EXPECT_LT(s.mean_ape_pct(), 5.0);
}

TEST(DriftMonitor, SustainedErrorAlertsOnceAndRearmsAfterRecovery) {
  DriftStream s;
  i32 t = 0;
  for (; t < 10; ++t) EXPECT_FALSE(s.observe(10.0, 10.0));  // healthy

  // A sustained 75 % error crosses once: the rule fires on the edge, not
  // on every frame above the threshold.
  std::vector<i32> alerts;
  for (; t < 110; ++t) {
    if (s.observe(10.0, 40.0)) alerts.push_back(t);
  }
  ASSERT_EQ(alerts.size(), 1u) << "sustained 75% error must alert exactly once";
  EXPECT_LE(alerts[0], 10 + 32);
  EXPECT_NEAR(s.mean_ape_pct(), 75.0, 1e-9);

  // Recovery: once the window's mean is back at or below the threshold
  // the rule re-arms, and the next excursion alerts again.
  for (; t < 210; ++t) EXPECT_FALSE(s.observe(10.0, 10.0));
  EXPECT_LE(s.mean_ape_pct(), DriftRule::kThresholdPct);
  for (; t < 310; ++t) {
    if (s.observe(10.0, 40.0)) alerts.push_back(t);
  }
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_GT(alerts[1], 210);
}

TEST(DriftMonitor, RuleNeedsMinimumSamples) {
  DriftRule rule;
  CalibrationWindow w(64);
  for (u64 i = 1; i < DriftRule::kMinSamples; ++i) {
    w.add(200.0);
    EXPECT_FALSE(rule.crossed(w.stats())) << i << " samples";
  }
  w.add(200.0);
  EXPECT_TRUE(rule.crossed(w.stats()));
}

// A deliberately corrupted Markov predictor is caught within a bounded
// number of frames.  The rule watches predicted-vs-measured of a chain that
// was fine during warm-up and then starts predicting from corrupted state
// (a 3x mis-scale, as a stale/overwritten quantizer would produce).
TEST(DriftMonitor, CatchesCorruptedMarkovPredictorWithinBoundedFrames) {
  // A well-trained chain over a bimodal frame-total series.
  Pcg32 rng(21);
  std::vector<f64> series;
  for (i32 i = 0; i < 400; ++i) {
    const f64 base = (i / 8) % 2 == 0 ? 10.0 : 16.0;
    series.push_back(rng.uniform(base, base + 1.0));
  }
  model::MarkovChain chain;
  chain.fit(series);
  ASSERT_TRUE(chain.fitted());

  DriftStream mon;

  // Healthy phase: the chain predicts its own workload well; no alarms.
  f64 prev = series.back();
  i32 t = 0;
  for (; t < 120; ++t) {
    const f64 base = (t / 8) % 2 == 0 ? 10.0 : 16.0;
    const f64 measured = rng.uniform(base, base + 1.0);
    EXPECT_FALSE(mon.observe(chain.predict_next(prev), measured))
        << "healthy predictor alarmed at frame " << t;
    prev = measured;
  }

  // Corruption: predictions now come out of a mis-scaled state space.
  constexpr i32 kDetectionBound = 32;
  i32 detected_after = -1;
  for (i32 k = 0; k < kDetectionBound; ++k, ++t) {
    const f64 base = (t / 8) % 2 == 0 ? 10.0 : 16.0;
    const f64 measured = rng.uniform(base, base + 1.0);
    const f64 corrupted_prediction = 3.0 * chain.predict_next(prev);
    if (mon.observe(corrupted_prediction, measured)) {
      detected_after = k + 1;
      break;
    }
    prev = measured;
  }
  ASSERT_GT(detected_after, 0)
      << "corrupted Markov predictor not caught within " << kDetectionBound
      << " frames";
  EXPECT_LE(detected_after, kDetectionBound);
}

TEST(SloMonitor, MissRateBreachFiresOncePerCooldown) {
  SloSpec spec;
  spec.name = "miss_rate";
  spec.kind = SloKind::DeadlineMissRate;
  spec.threshold = 0.2;
  spec.window = 20;
  spec.min_frames = 10;
  spec.cooldown_frames = 30;
  SloMonitor mon({spec});

  i32 breaches = 0;
  for (i32 t = 0; t < 100; ++t) {
    const bool miss = t >= 40 && t % 2 == 0;  // 50 % misses from frame 40
    breaches += static_cast<i32>(mon.observe_frame(t, 10.0, miss).size());
  }
  EXPECT_GE(breaches, 1);
  EXPECT_LE(breaches, 3);  // cooldown throttles repeated firing
  EXPECT_EQ(mon.breaches_total(), static_cast<u64>(breaches));
  EXPECT_GT(mon.window_snapshot().miss_rate, 0.2);
}

TEST(SloMonitor, LatencySlosTrackWindowPercentiles) {
  SloSpec p99;
  p99.name = "p99";
  p99.kind = SloKind::P99LatencyMs;
  p99.threshold = 20.0;
  p99.window = 50;
  p99.min_frames = 10;
  SloSpec jitter;
  jitter.name = "jitter";
  jitter.kind = SloKind::JitterP99MinusP50Ms;
  jitter.threshold = 15.0;
  jitter.window = 50;
  jitter.min_frames = 10;
  SloMonitor mon({p99, jitter});

  for (i32 t = 0; t < 50; ++t) (void)mon.observe_frame(t, 10.0, false);
  SloMonitor::WindowStats w = mon.window_snapshot();
  EXPECT_NEAR(w.p99, 10.0, 1e-9);
  EXPECT_NEAR(w.p99 - w.p50, 0.0, 1e-9);

  // One frame in fifty at 100 ms: p99 and jitter jump, both SLOs break.
  std::vector<SloBreach> fired;
  for (i32 t = 50; t < 100; ++t) {
    const f64 latency = t % 25 == 0 ? 100.0 : 10.0;
    for (SloBreach& b : mon.observe_frame(t, latency, false)) {
      fired.push_back(std::move(b));
    }
  }
  ASSERT_GE(fired.size(), 2u);
  EXPECT_EQ(fired[0].slo, "p99");
  EXPECT_EQ(fired[1].slo, "jitter");
  EXPECT_EQ(mon.breaches_total(), fired.size());
  EXPECT_GT(mon.window_snapshot().p99, 20.0);
}

TEST(SloMonitor, WindowWraparoundEvictsOldFrames) {
  SloSpec p99;
  p99.name = "p99";
  p99.kind = SloKind::P99LatencyMs;
  p99.threshold = 1000.0;  // never breaches; this test is about the window
  p99.window = 8;
  p99.min_frames = 1;
  SloSpec miss;
  miss.name = "miss";
  miss.kind = SloKind::DeadlineMissRate;
  miss.threshold = 2.0;
  miss.window = 8;
  miss.min_frames = 1;
  SloMonitor mon({p99, miss});

  // Eight slow missed frames fill the ring...
  for (i32 t = 0; t < 8; ++t) (void)mon.observe_frame(t, 100.0, true);
  SloMonitor::WindowStats w = mon.window_snapshot();
  EXPECT_NEAR(w.p99, 100.0, 1e-9);
  EXPECT_NEAR(w.miss_rate, 1.0, 1e-9);

  // ...then eight fast hits wrap it: nothing of the slow epoch may survive.
  for (i32 t = 8; t < 16; ++t) (void)mon.observe_frame(t, 1.0, false);
  w = mon.window_snapshot();
  EXPECT_EQ(w.frames, 8);
  EXPECT_NEAR(w.p99, 1.0, 1e-9);
  EXPECT_NEAR(w.p50, 1.0, 1e-9);
  EXPECT_NEAR(w.miss_rate, 0.0, 1e-9);

  // Half-wrapped: four old hits and four new misses -> 50 % miss rate.
  for (i32 t = 16; t < 20; ++t) (void)mon.observe_frame(t, 50.0, true);
  EXPECT_NEAR(mon.window_snapshot().miss_rate, 0.5, 1e-9);
}

TEST(SloMonitor, P99TracksKnownDistribution) {
  SloSpec p99;
  p99.name = "p99";
  p99.kind = SloKind::P99LatencyMs;
  p99.threshold = 1000.0;
  p99.window = 100;
  p99.min_frames = 1;
  SloMonitor mon({p99});
  // Latencies 1..100: p99 of the full window lies in the top two values.
  for (i32 t = 0; t < 100; ++t) {
    (void)mon.observe_frame(t, static_cast<f64>(t + 1), false);
  }
  const SloMonitor::WindowStats w = mon.window_snapshot();
  EXPECT_EQ(w.frames, 100);
  EXPECT_NEAR(w.p50, 50.5, 1.0);
  EXPECT_GE(w.p99, 99.0);
  EXPECT_LE(w.p99, 100.0);
}

TEST(SloMonitor, ConcurrentMultiStreamFeedingStaysConsistent) {
  // The serving layer feeds one fleet monitor from several scheduler slots
  // concurrently; aggregates must account for every frame exactly once.
  SloSpec miss;
  miss.name = "fleet/miss";
  miss.kind = SloKind::DeadlineMissRate;
  miss.threshold = 0.9;   // high enough to never fire mid-test
  miss.window = 4096;     // window holds every fed frame
  miss.min_frames = 100000;
  SloSpec p99;
  p99.name = "fleet/p99";
  p99.kind = SloKind::P99LatencyMs;
  p99.threshold = 1e9;
  p99.window = 4096;
  p99.min_frames = 100000;
  SloMonitor mon({miss, p99});

  const i32 threads = 4;
  const i32 frames_each = 500;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (i32 w = 0; w < threads; ++w) {
    workers.emplace_back([&mon, w] {
      for (i32 t = 0; t < frames_each; ++t) {
        // Stream w misses every other frame at latency 10 + w.
        (void)mon.observe_frame(w * frames_each + t, 10.0 + w, t % 2 == 0);
      }
    });
  }
  for (std::thread& t : workers) t.join();

  const SloMonitor::WindowStats w = mon.window_snapshot();
  EXPECT_EQ(w.frames, threads * frames_each);
  EXPECT_NEAR(w.miss_rate, 0.5, 1e-9);  // every stream misses exactly half
  // All latencies lie in [10, 13]; so must the window percentiles.
  EXPECT_GE(w.p50, 10.0);
  EXPECT_LE(w.p99, 13.0);
  EXPECT_EQ(mon.breaches_total(), 0u);
}

}  // namespace
}  // namespace tc::obs
