#include "serve/registry.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "snapshot_fixture.hpp"

namespace tc::serve {
namespace {

app::StentBoostConfig app_config(i32 size = 128) {
  return app::StentBoostConfig::make(size, size, /*frames=*/8, /*seed=*/3);
}

exec::PredictorSnapshot trained_snapshot(u64 frames, f64 rdg_ms = 5.0) {
  return learnt_snapshot(frames, {{app::kRdgFull, rdg_ms}});
}

f64 rdg_ms(const std::optional<exec::PredictorSnapshot>& snap) {
  return snap->predictor.predict_task(app::kRdgFull);
}

TEST(ClassKey, EncodesGeometryAndPipelineFacets) {
  const std::string base = PredictorRegistry::class_key(app_config());
  EXPECT_EQ(base, "128x128");

  app::StentBoostConfig ff = app_config();
  ff.force_full_frame = true;
  EXPECT_EQ(PredictorRegistry::class_key(ff), "128x128/ff");

  app::StentBoostConfig roi = app_config();
  roi.roi_side_override = 64;
  EXPECT_EQ(PredictorRegistry::class_key(roi), "128x128/roi64");

  // Different geometry, different class; identical config, identical class.
  EXPECT_NE(PredictorRegistry::class_key(app_config(256)), base);
  EXPECT_EQ(PredictorRegistry::class_key(app_config()), base);
}

TEST(PredictorRegistry, LookupMissThenHitTracksCounters) {
  PredictorRegistry reg;
  EXPECT_FALSE(reg.lookup("128x128").has_value());
  EXPECT_EQ(reg.misses(), 1u);

  reg.publish("128x128", trained_snapshot(16));
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.publishes(), 1u);

  const auto snap = reg.lookup("128x128");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->trained_frames, 16u);
  EXPECT_NEAR(rdg_ms(snap), 5.0, 1e-12);
  EXPECT_EQ(reg.hits(), 1u);
}

TEST(PredictorRegistry, UntrainedSnapshotsAreDropped) {
  PredictorRegistry reg;
  reg.publish("k", exec::PredictorSnapshot{});
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.publishes(), 0u);
}

TEST(PredictorRegistry, BetterTrainedSnapshotReplacesWorse) {
  PredictorRegistry reg;
  reg.publish("k", trained_snapshot(10, /*rdg_ms=*/1.0));
  reg.publish("k", trained_snapshot(50, /*rdg_ms=*/2.0));
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_NEAR(rdg_ms(reg.lookup("k")), 2.0, 1e-12);

  // A less-trained snapshot must not clobber the stored one.
  reg.publish("k", trained_snapshot(5, /*rdg_ms=*/9.0));
  EXPECT_NEAR(rdg_ms(reg.lookup("k")), 2.0, 1e-12);
}

TEST(PredictorRegistry, ClassesAreIndependent) {
  PredictorRegistry reg;
  reg.publish("a", trained_snapshot(10, 1.0));
  reg.publish("b", trained_snapshot(10, 2.0));
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_NEAR(rdg_ms(reg.lookup("a")), 1.0, 1e-12);
  EXPECT_NEAR(rdg_ms(reg.lookup("b")), 2.0, 1e-12);
}

TEST(PredictorRegistry, ConcurrentPublishAndLookupStaySane) {
  PredictorRegistry reg;
  const i32 threads = 4;
  const i32 rounds = 200;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (i32 w = 0; w < threads; ++w) {
    workers.emplace_back([&reg, w] {
      for (i32 r = 0; r < rounds; ++r) {
        reg.publish("shared", trained_snapshot(static_cast<u64>(r + 1),
                                               static_cast<f64>(w)));
        const auto snap = reg.lookup("shared");
        ASSERT_TRUE(snap.has_value());
        ASSERT_GE(snap->trained_frames, 1u);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.publishes(), static_cast<u64>(threads * rounds));
  EXPECT_EQ(reg.hits(), static_cast<u64>(threads * rounds));
  // The stored snapshot is the (a) most-trained one published.
  EXPECT_EQ(reg.lookup("shared")->trained_frames, static_cast<u64>(rounds));
}

}  // namespace
}  // namespace tc::serve
