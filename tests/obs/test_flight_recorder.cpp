#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/obs.hpp"

namespace tc::obs {
namespace {

TEST(FlightRecorder, RecordsAndSnapshotsInOrder) {
  FlightRecorder rec(64);
  rec.record(FrEventType::FrameStart, 0, -1, 1.0);
  rec.record(FrEventType::NodeTiming, 0, 3, 2.5, 2.75);
  rec.record(FrEventType::FrameEnd, 0, -1, 3.0, 4.0);

  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, FrEventType::FrameStart);
  EXPECT_EQ(events[1].type, FrEventType::NodeTiming);
  EXPECT_EQ(events[1].node, 3);
  EXPECT_DOUBLE_EQ(events[1].a, 2.5);
  EXPECT_DOUBLE_EQ(events[1].b, 2.75);
  EXPECT_EQ(events[2].type, FrEventType::FrameEnd);
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const FlightEvent& x, const FlightEvent& y) { return x.ts_us < y.ts_us; }));
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.total_recorded(), 3u);
  EXPECT_EQ(rec.thread_count(), 1u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwoMin64) {
  EXPECT_EQ(FlightRecorder(0).capacity_per_thread(), 64u);
  EXPECT_EQ(FlightRecorder(65).capacity_per_thread(), 128u);
  EXPECT_EQ(FlightRecorder(256).capacity_per_thread(), 256u);
}

TEST(FlightRecorder, WraparoundKeepsNewestCapacityEvents) {
  FlightRecorder rec(64);
  const i32 total = 64 * 3 + 17;
  for (i32 i = 0; i < total; ++i) {
    rec.record(FrEventType::Custom, i, -1, static_cast<f64>(i));
  }
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 64u);
  EXPECT_EQ(rec.total_recorded(), static_cast<u64>(total));
  // The surviving window is exactly the last 64 frames, in order.
  for (usize i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].frame, total - 64 + static_cast<i32>(i));
  }
}

TEST(FlightRecorder, ClearEmptiesRingsButKeepsThreadRegistration) {
  FlightRecorder rec(64);
  rec.record(FrEventType::Custom, 1);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.thread_count(), 1u);
  rec.record(FrEventType::Custom, 2);
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].frame, 2);
}

TEST(FlightRecorder, PerThreadRingsMergeIntoOneTimeline) {
  FlightRecorder rec(256);
  constexpr i32 kThreads = 4;
  constexpr i32 kPerThread = 100;
  std::vector<std::thread> threads;
  for (i32 th = 0; th < kThreads; ++th) {
    threads.emplace_back([&rec, th] {
      for (i32 i = 0; i < kPerThread; ++i) {
        rec.record(FrEventType::Custom, i, th);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(rec.thread_count(), static_cast<usize>(kThreads));
  const std::vector<FlightEvent> events = rec.snapshot();
  EXPECT_EQ(events.size(), static_cast<usize>(kThreads * kPerThread));
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const FlightEvent& x, const FlightEvent& y) { return x.ts_us < y.ts_us; }));
  // Per producer (tagged via node), the frame payloads arrive in order:
  // per-thread rings never reorder their own events.
  for (i32 th = 0; th < kThreads; ++th) {
    i32 expected = 0;
    for (const FlightEvent& e : events) {
      if (e.node != th) continue;
      EXPECT_EQ(e.frame, expected++);
    }
    EXPECT_EQ(expected, kPerThread);
  }
}

// The acceptance property of the recorder: writers stay lock-free while a
// reader snapshots concurrently, and no snapshot ever observes a torn slot
// (a seq-mismatched slot is dropped).  Run under TSan this also proves the
// protocol data-race-free.
TEST(FlightRecorder, ConcurrentSnapshotsNeverTearEvents) {
  FlightRecorder rec(64);  // small ring: heavy wraparound during the test
  constexpr i32 kWriters = 3;
  constexpr i32 kPerWriter = 4000;
  std::vector<std::thread> writers;
  for (i32 w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, w] {
      for (i32 i = 0; i < kPerWriter; ++i) {
        // Invariant checked below: a == frame + 1, b == frame + 2.
        const f64 v = static_cast<f64>(i);
        rec.record(FrEventType::Custom, i, w, v + 1.0, v + 2.0);
      }
    });
  }
  auto validate = [kWriters](const std::vector<FlightEvent>& events) {
    for (const FlightEvent& e : events) {
      ASSERT_EQ(e.type, FrEventType::Custom);
      ASSERT_DOUBLE_EQ(e.a, static_cast<f64>(e.frame) + 1.0);
      ASSERT_DOUBLE_EQ(e.b, static_cast<f64>(e.frame) + 2.0);
      ASSERT_GE(e.node, 0);
      ASSERT_LT(e.node, kWriters);
    }
  };
  // Snapshot while the writers wrap their rings (a single-core scheduler
  // may serialize this; TSan + multicore CI exercise the true overlap).
  for (i32 round = 0; round < 200; ++round) {
    validate(rec.snapshot());
    std::this_thread::yield();
  }
  for (auto& t : writers) t.join();
  // Quiescent: every ring holds exactly its last 64 events, nothing torn.
  const std::vector<FlightEvent> final_events = rec.snapshot();
  validate(final_events);
  EXPECT_EQ(final_events.size(), static_cast<usize>(kWriters) * 64u);
  EXPECT_EQ(rec.total_recorded(),
            static_cast<u64>(kWriters) * static_cast<u64>(kPerWriter));
}

TEST(FlightRecorder, ReallocatedRecorderNeverServesStaleCachedRing) {
  // The TLS ring cache is keyed on a process-unique generation, not the
  // recorder's address: destroy a recorder this thread recorded into, let
  // the allocator hand the next recorder the same address, and the cache
  // must miss (ABA) instead of dereferencing the dead recorder's ring.
  for (i32 round = 0; round < 8; ++round) {
    auto rec = std::make_unique<FlightRecorder>(64);
    rec->record(FrEventType::Custom, round);
    const std::vector<FlightEvent> events = rec->snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].frame, round);
  }
}

TEST(FlightRecorder, EventsJsonRoundTripsThroughParser) {
  FlightRecorder rec(64);
  rec.record(FrEventType::DeadlineMiss, 7, -1, 12.5, 10.0);
  rec.record(FrEventType::QueuePush, -1, 2, 3.0);
  const std::string doc = flight_events_json(rec.snapshot());

  const common::JsonValue v = common::JsonValue::parse(doc);
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.at(0).string_or("type", ""), "deadline_miss");
  EXPECT_EQ(static_cast<i32>(v.at(0).number_or("frame", -2)), 7);
  EXPECT_DOUBLE_EQ(v.at(0).number_or("a", 0), 12.5);
  EXPECT_EQ(v.at(1).string_or("type", ""), "queue_push");
  EXPECT_EQ(static_cast<i32>(v.at(1).number_or("node", -2)), 2);
}

TEST(FlightRecorder, EventsJsonRoundTripsBitForBit) {
  FlightRecorder rec(64);
  rec.record(FrEventType::TaskSpan, 3, 2, 1.0 / 3.0, 2.0 / 7.0);
  rec.record(FrEventType::SimTask, 4, 5, 1e-7, 123456.789012345);
  rec.record(FrEventType::LedgerCpu, -1, -1, -0.1, 5e300);
  const std::vector<FlightEvent> events = rec.snapshot();

  const std::vector<FlightEvent> parsed = flight_events_from_json(
      common::JsonValue::parse(flight_events_json(events)));
  ASSERT_EQ(parsed.size(), events.size());
  for (usize i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].ts_us, events[i].ts_us);
    EXPECT_EQ(parsed[i].type, events[i].type);
    EXPECT_EQ(parsed[i].tid, events[i].tid);
    EXPECT_EQ(parsed[i].frame, events[i].frame);
    EXPECT_EQ(parsed[i].node, events[i].node);
    EXPECT_EQ(parsed[i].a, events[i].a);
    EXPECT_EQ(parsed[i].b, events[i].b);
  }
}

TEST(FlightRecorder, EventsFromJsonReadMalformedFieldsAsFallbacks) {
  const std::vector<FlightEvent> events =
      flight_events_from_json(common::JsonValue::parse(
          R"([{"type": "task_span", "tid": -3, "frame": 1e300,
               "node": "x", "a": 2.5},
              {"type": "not_an_event"}])"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, FrEventType::TaskSpan);
  EXPECT_EQ(events[0].tid, 0u);
  EXPECT_EQ(events[0].frame, -1);
  EXPECT_EQ(events[0].node, -1);
  EXPECT_EQ(events[0].a, 2.5);
  EXPECT_TRUE(flight_events_from_json(common::JsonValue::parse("{}")).empty());
}

TEST(FlightRecorder, ThreadIdsAreStablePerThread) {
  FlightRecorder rec(64);
  rec.record(FrEventType::Custom, 0);
  rec.record(FrEventType::Custom, 1);
  std::thread other([&rec] { rec.record(FrEventType::Custom, 2); });
  other.join();
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_NE(events[2].tid, events[0].tid);
}

TEST(FlightRecorder, GlobalContextClearAlsoClearsFlight) {
  obs::global().flight.record(FrEventType::Custom, 1);
  EXPECT_GT(obs::global().flight.size(), 0u);
  obs::global().clear();
  EXPECT_EQ(obs::global().flight.size(), 0u);
}

TEST(FlightRecorderEnum, EveryTypeHasAName) {
  for (u16 t = 0; t <= static_cast<u16>(FrEventType::Custom); ++t) {
    const auto type = static_cast<FrEventType>(t);
    EXPECT_STRNE(to_string(type), "unknown");
    EXPECT_EQ(flight_event_type(to_string(type)), type);
  }
  EXPECT_FALSE(flight_event_type("no_such_event").has_value());
}

}  // namespace
}  // namespace tc::obs
