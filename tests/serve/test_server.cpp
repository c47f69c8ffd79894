#include "serve/stream_server.hpp"

#include <gtest/gtest.h>

#include "snapshot_fixture.hpp"

namespace tc::serve {
namespace {

StreamConfig make_stream(f64 deadline_ms, i32 frames = 10, i32 size = 96,
                         u64 seed = 11) {
  StreamConfig stream;
  stream.app = app::StentBoostConfig::make(size, size, frames, seed);
  stream.deadline_ms = deadline_ms;
  stream.frames = frames;
  return stream;
}

ServeConfig small_server() {
  ServeConfig sc;
  sc.pool_threads = 2;
  sc.max_concurrent_streams = 2;
  return sc;
}

TEST(StreamServer, ServesOneStreamToCompletion) {
  StreamServer server(small_server());
  const i32 id = server.submit(make_stream(/*deadline_ms=*/500.0));
  server.drain();

  const StreamReport r = server.report(id);
  EXPECT_EQ(r.decision.verdict, AdmissionVerdict::Admit);
  EXPECT_TRUE(r.served);
  EXPECT_EQ(r.frames, 10);
  EXPECT_EQ(r.name, "s0");  // default name fallback
  EXPECT_GT(r.mean_ms, 0.0);
  EXPECT_GE(r.p99_ms, r.p50_ms);
}

TEST(StreamServer, RejectedStreamNeverRunsAndDrainReturns) {
  StreamServer server(small_server());
  // No candidate plan fits a microsecond-scale deadline.
  const i32 id = server.submit(make_stream(/*deadline_ms=*/0.001));
  server.drain();  // must not hang with nothing admitted

  const StreamReport r = server.report(id);
  EXPECT_EQ(r.decision.verdict, AdmissionVerdict::Reject);
  EXPECT_FALSE(r.served);
  EXPECT_EQ(r.frames, 0);
  EXPECT_EQ(server.fleet().rejected, 1);
  EXPECT_EQ(server.fleet().frames, 0);
  EXPECT_FALSE(server.fleet_status().draining);

  // The empty drain left the server able to serve the next stream.
  const i32 next = server.submit(make_stream(/*deadline_ms=*/500.0));
  server.drain();
  const StreamReport served = server.report(next);
  EXPECT_EQ(served.decision.verdict, AdmissionVerdict::Admit);
  EXPECT_TRUE(served.served);
  EXPECT_EQ(served.frames, 10);
  EXPECT_FALSE(server.fleet_status().draining);
}

TEST(StreamServer, FleetAggregatesAcrossStreams) {
  StreamServer server(small_server());
  const i32 a = server.submit(make_stream(500.0, /*frames=*/8, 96, 1));
  const i32 b = server.submit(make_stream(500.0, /*frames=*/12, 96, 2));
  server.drain();

  EXPECT_TRUE(server.report(a).served);
  EXPECT_TRUE(server.report(b).served);
  const FleetReport fleet = server.fleet();
  EXPECT_EQ(fleet.submitted, 2);
  EXPECT_EQ(fleet.admitted, 2);
  EXPECT_EQ(fleet.frames, 20);
  EXPECT_GT(fleet.p99_ms, 0.0);
  EXPECT_GT(fleet.capacity_cores, 0.0);
  EXPECT_GT(fleet.peak_committed_cores, 0.0);
  EXPECT_LE(fleet.peak_committed_cores, fleet.capacity_cores + 1e-9);
  ASSERT_NE(server.fleet_slo(), nullptr);
}

TEST(StreamServer, SameClassFollowUpWarmStarts) {
  StreamServer server(small_server());
  const i32 cold = server.submit(make_stream(500.0, /*frames=*/12));
  server.drain();
  EXPECT_FALSE(server.report(cold).warm_started);
  EXPECT_GE(server.registry().publishes(), 1u);

  const i32 warm = server.submit(make_stream(500.0, /*frames=*/12));
  server.drain();
  const StreamReport r = server.report(warm);
  EXPECT_TRUE(r.served);
  EXPECT_TRUE(r.warm_started);
  EXPECT_TRUE(r.decision.demand.warm);
  EXPECT_GE(server.registry().hits(), 1u);
  EXPECT_EQ(r.class_key, server.report(cold).class_key);
}

TEST(StreamServer, QueuedStreamsPromoteAndFinish) {
  // One pool thread = 0.85 cores of capacity.  A pre-published snapshot
  // prices every stream warm at fixed numbers (4 ms frames against an 8 ms
  // deadline = 0.5 cores), making the verdicts independent of host timing:
  // the first stream admits, the rest exceed the 0.35-core residual and
  // must queue, then promote when an earlier stream retires.
  ServeConfig sc;
  sc.pool_threads = 1;
  sc.max_concurrent_streams = 2;
  StreamServer server(sc);
  const exec::PredictorSnapshot snap =
      learnt_snapshot(64, {{app::kRdgFull, 4.0}});
  server.registry().publish(
      PredictorRegistry::class_key(make_stream(1.0).app), snap);
  const f64 deadline = 8.0;
  std::vector<i32> ids;
  for (i32 i = 0; i < 3; ++i) {
    ids.push_back(server.submit(make_stream(deadline, /*frames=*/8, 96,
                                            /*seed=*/static_cast<u64>(i))));
  }
  server.drain();

  i32 served = 0;
  i32 queued_at_submit = 0;
  for (const i32 id : ids) {
    const StreamReport r = server.report(id);
    if (r.served) ++served;
    if (r.decision.verdict == AdmissionVerdict::Queue) ++queued_at_submit;
    EXPECT_NE(r.decision.verdict, AdmissionVerdict::Reject)
        << r.name << ": " << r.decision.reason;
  }
  // Every non-rejected stream must eventually be served (queued ones by
  // promotion), regardless of how many fit the initial residual.
  EXPECT_EQ(served, 3);
  EXPECT_EQ(queued_at_submit, 2);
  EXPECT_EQ(server.fleet().queued, 2);
}

TEST(StreamServer, PerStreamSloMonitorsCoexist) {
  StreamServer server(small_server());
  // Two streams of 40 frames overfill the fleet's 64-frame window.
  const i32 window = obs::SloSpec{}.window;
  const i32 frames = window / 2 + 8;
  StreamConfig a = make_stream(500.0, frames);
  a.name = "alpha";
  StreamConfig b = make_stream(500.0, frames, 96, /*seed=*/9);
  b.name = "beta";
  (void)server.submit(std::move(a));
  (void)server.submit(std::move(b));
  server.drain();

  // Objectives are stream-prefixed, so both monitors share the registry and
  // the fleet monitor aggregates everything it saw (ring capped at the
  // window).
  ASSERT_NE(server.fleet_slo(), nullptr);
  EXPECT_EQ(server.fleet_slo()->window_snapshot().frames, window);
  for (const StreamReport& r : server.reports()) {
    EXPECT_TRUE(r.served);
    EXPECT_GE(r.miss_rate, 0.0);
    EXPECT_LE(r.miss_rate, 1.0);
  }
}

TEST(StreamServer, WeightsShapePoolShares) {
  // A 4-thread pool split between weights 3 and 1: the heavy stream's
  // planner must see a larger share.  (Shares are recomputed per step; this
  // asserts the configured weights survive into the reports.)
  ServeConfig sc;
  sc.pool_threads = 4;
  sc.max_concurrent_streams = 2;
  StreamServer server(sc);
  StreamConfig heavy = make_stream(500.0, /*frames=*/8);
  heavy.weight = 3.0;
  StreamConfig light = make_stream(500.0, /*frames=*/8, 96, /*seed=*/17);
  light.weight = 1.0;
  const i32 h = server.submit(std::move(heavy));
  const i32 l = server.submit(std::move(light));
  server.drain();

  EXPECT_NEAR(server.report(h).weight, 3.0, 1e-12);
  EXPECT_NEAR(server.report(l).weight, 1.0, 1e-12);
  EXPECT_TRUE(server.report(h).served);
  EXPECT_TRUE(server.report(l).served);
}

}  // namespace
}  // namespace tc::serve
