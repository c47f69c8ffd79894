#include "cache_sim.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "platform/buffer_model.hpp"

namespace tc::plat {
namespace {

CacheConfig small_cache(u64 kb = 64, u64 line = 64, u32 ways = 8) {
  CacheConfig c;
  c.capacity_bytes = kb * KiB;
  c.line_bytes = line;
  c.associativity = ways;
  return c;
}

TEST(CacheSim, ColdMissThenHit) {
  CacheSim sim(small_cache());
  sim.read(0);
  EXPECT_EQ(sim.stats().misses, 1u);
  sim.read(0);
  sim.read(63);  // same line
  EXPECT_EQ(sim.stats().hits, 2u);
  sim.read(64);  // next line
  EXPECT_EQ(sim.stats().misses, 2u);
}

TEST(CacheSim, SetCountFromGeometry) {
  CacheSim sim(small_cache(64, 64, 8));
  EXPECT_EQ(sim.set_count(), 64u * 1024 / (64 * 8));
}

TEST(CacheSim, StreamingIsAllColdMisses) {
  CacheSim sim(small_cache());
  const u64 bytes = 1 * MiB;
  sim.read_range(0, bytes);
  EXPECT_EQ(sim.stats().accesses, bytes / 64);
  EXPECT_EQ(sim.stats().misses, bytes / 64);
}

TEST(CacheSim, WorkingSetWithinCapacityHasNoCapacityMisses) {
  CacheSim sim(small_cache(64));
  // Touch 32 KB twice: second pass is all hits.
  sim.read_range(0, 32 * KiB);
  u64 cold = sim.stats().misses;
  sim.read_range(0, 32 * KiB);
  EXPECT_EQ(sim.stats().misses, cold);
  EXPECT_EQ(sim.stats().hits, cold);
}

TEST(CacheSim, WorkingSetBeyondCapacityThrashes) {
  CacheSim sim(small_cache(64));
  // Touch 128 KB twice sequentially: with LRU the second pass misses again.
  sim.read_range(0, 128 * KiB);
  u64 cold = sim.stats().misses;
  sim.read_range(0, 128 * KiB);
  EXPECT_GT(sim.stats().misses, cold * 3 / 2);
}

TEST(CacheSim, DirtyEvictionCountsWriteback) {
  CacheConfig c = small_cache(1, 64, 1);  // 1 KB direct-mapped: 16 sets
  CacheSim sim(c);
  sim.write(0);                // line 0, set 0, dirty
  sim.read(1 * KiB);           // line 16 maps to set 0: evicts dirty line
  EXPECT_EQ(sim.stats().writebacks, 1u);
}

TEST(CacheSim, CleanEvictionNoWriteback) {
  CacheConfig c = small_cache(1, 64, 1);
  CacheSim sim(c);
  sim.read(0);
  sim.read(1 * KiB);
  EXPECT_EQ(sim.stats().writebacks, 0u);
}

TEST(CacheSim, FlushWritesBackDirtyLines) {
  CacheSim sim(small_cache());
  sim.write_range(0, 4 * KiB);  // 64 dirty lines
  sim.flush();
  EXPECT_EQ(sim.stats().writebacks, 64u);
}

TEST(CacheSim, LruKeepsHotLine) {
  CacheConfig c = small_cache(1, 64, 2);  // 8 sets, 2 ways
  CacheSim sim(c);
  // Three lines mapping to set 0: 0, 512, 1024 (8 sets x 64 B = 512 B).
  sim.read(0);
  sim.read(512);
  sim.read(0);     // keeps line 0 most recent
  sim.read(1024);  // evicts line 512 (LRU), not line 0
  sim.read(0);
  EXPECT_EQ(sim.stats().misses, 3u);
  EXPECT_EQ(sim.stats().hits, 2u);
}

TEST(CacheSim, MissRateAndTraffic) {
  CacheSim sim(small_cache());
  sim.read_range(0, 64 * KiB);
  EXPECT_DOUBLE_EQ(sim.stats().miss_rate(), 1.0);
  EXPECT_EQ(sim.stats().traffic_bytes(64), 64 * KiB);
}

// ---------------------------------------------------------------------------
// Cross-validation: the analytical space-time buffer model vs. simulation.
// ---------------------------------------------------------------------------

/// Replay a simple streaming task: read input once, write+re-read an
/// intermediate buffer, write the output; all buffers processed in row
/// chunks interleaved like a real streaming kernel.
CacheStats simulate_streaming_task(u64 cache_kb, u64 in_bytes, u64 mid_bytes,
                                   u64 out_bytes) {
  CacheSim sim(small_cache(cache_kb));
  const u64 in_base = 0;
  const u64 mid_base = 16 * MiB;
  const u64 out_base = 32 * MiB;
  const u64 chunks = 64;
  for (u64 c = 0; c < chunks; ++c) {
    sim.read_range(in_base + c * in_bytes / chunks, in_bytes / chunks);
    sim.write_range(mid_base + c * mid_bytes / chunks, mid_bytes / chunks);
  }
  // Second pass over the intermediate (the re-use the analytical model's
  // reuse_count captures), then the output.
  for (u64 c = 0; c < chunks; ++c) {
    sim.read_range(mid_base + c * mid_bytes / chunks, mid_bytes / chunks);
    sim.write_range(out_base + c * out_bytes / chunks, out_bytes / chunks);
  }
  sim.flush();
  return sim.stats();
}

TEST(CacheSimVsModel, IntermediateFitsNoExtraTraffic) {
  // Intermediate (256 KB) fits a 1 MB cache: simulated traffic ≈ compulsory
  // (in + mid + out once each, plus the dirty mid/out writebacks).
  const u64 in_b = 512 * KiB;
  const u64 mid_b = 256 * KiB;
  const u64 out_b = 512 * KiB;
  CacheStats s = simulate_streaming_task(1024, in_b, mid_b, out_b);
  u64 compulsory = in_b + mid_b + out_b;          // cold fills
  u64 writeback = mid_b + out_b;                  // dirty data leaves once
  EXPECT_NEAR(static_cast<f64>(s.traffic_bytes(64)),
              static_cast<f64>(compulsory + writeback),
              0.05 * static_cast<f64>(compulsory + writeback));

  SpaceTimeBufferModel model;
  model.add_buffer({"in", in_b, 0.0, 0.5, 1});
  model.add_buffer({"mid", mid_b, 0.1, 0.9, 2});
  model.add_buffer({"out", out_b, 0.5, 1.0, 1});
  EXPECT_EQ(model.analyze(1 * MiB).eviction_traffic_bytes, 0u);
}

TEST(CacheSimVsModel, OversizedIntermediateCausesExtraTraffic) {
  // Intermediate (2 MB) exceeds a 1 MB cache: the simulated traffic gains
  // roughly the re-read + re-written overflow, which is what the analytical
  // model predicts as eviction traffic.
  const u64 in_b = 512 * KiB;
  const u64 mid_b = 2 * MiB;
  const u64 out_b = 512 * KiB;
  CacheStats s = simulate_streaming_task(1024, in_b, mid_b, out_b);
  u64 compulsory = in_b + mid_b + out_b + mid_b + out_b;
  u64 extra_sim = s.traffic_bytes(64) - compulsory;
  // The whole intermediate thrashes: it is written out and re-fetched once.
  EXPECT_NEAR(static_cast<f64>(extra_sim), static_cast<f64>(mid_b),
              0.25 * static_cast<f64>(mid_b));

  SpaceTimeBufferModel model;
  model.add_buffer({"in", in_b, 0.0, 0.5, 1});
  model.add_buffer({"mid", mid_b, 0.1, 0.9, 2});
  model.add_buffer({"out", out_b, 0.5, 1.0, 1});
  OccupancyAnalysis a = model.analyze(1 * MiB);
  EXPECT_GT(a.eviction_traffic_bytes, 0u);
  // Analytical prediction is the same order of magnitude as simulation.
  f64 ratio = static_cast<f64>(a.eviction_traffic_bytes) /
              static_cast<f64>(extra_sim);
  EXPECT_GT(ratio, 0.3);
  EXPECT_LT(ratio, 6.0);
}

class CacheCapacitySweep : public ::testing::TestWithParam<u64> {};

TEST_P(CacheCapacitySweep, MoreCacheNeverMoreMisses) {
  const u64 mid_b = GetParam() * KiB;
  u64 prev = ~0ull;
  for (u64 kb : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
    CacheStats s = simulate_streaming_task(kb, 256 * KiB, mid_b, 256 * KiB);
    EXPECT_LE(s.misses, prev) << "cache " << kb << " KB";
    prev = s.misses;
  }
}

INSTANTIATE_TEST_SUITE_P(MidSizes, CacheCapacitySweep,
                         ::testing::Values(128, 512, 1024, 3072));

}  // namespace
}  // namespace tc::plat
