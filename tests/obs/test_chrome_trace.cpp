// The one Chrome-trace writer: schema, escaping, numeric counters, span
// containment, the simulated-timeline layout, concurrent recording, clear,
// and byte equality with `triplec_postmortem --chrome` on a bundle.
#include "obs/chrome_trace.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"

namespace tc::obs {
namespace {

std::string short_name(i32 node) { return "N" + std::to_string(node); }

/// The non-metadata trace elements of a document.
std::vector<common::JsonValue> elements(const std::string& json) {
  std::vector<common::JsonValue> out;
  const common::JsonValue doc = common::JsonValue::parse(json);
  for (const common::JsonValue& e : doc.get("traceEvents").items()) {
    if (e.string_or("ph", "") != "M") out.push_back(e);
  }
  return out;
}

const common::JsonValue* find_element(
    const std::vector<common::JsonValue>& elems, const std::string& name,
    f64 pid) {
  for (const common::JsonValue& e : elems) {
    if (e.string_or("name", "") == name && e.number_or("pid", 0) == pid) {
      return &e;
    }
  }
  return nullptr;
}

TEST(ChromeTrace, JsonHasSchemaFields) {
  FlightRecorder rec(64);
  rec.record(FrEventType::FrameStart, 0, -1, 1.5);
  rec.record(FrEventType::FrameEnd, 0, -1, 2.0, 3.0);
  const std::string json = chrome_trace_json(rec.snapshot(), short_name);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // Args are numbers, not strings.
  EXPECT_NE(json.find("\"predicted_ms\":1.5"), std::string::npos);
  const std::vector<common::JsonValue> elems = elements(json);
  ASSERT_EQ(elems.size(), 1u);
  EXPECT_EQ(elems[0].string_or("name", ""), "frame 0");
}

TEST(ChromeTrace, JsonEscapesSpecialCharacters) {
  FlightRecorder rec(64);
  rec.record(FrEventType::TaskSpan, 0, 4, 1.0);
  const std::string name = "quote\" backslash\\ newline\n";
  const std::string json =
      chrome_trace_json(rec.snapshot(), [&](i32) { return name; });
  EXPECT_NE(json.find("quote\\\" backslash\\\\ newline\\n"),
            std::string::npos);
  const std::vector<common::JsonValue> elems = elements(json);
  ASSERT_EQ(elems.size(), 1u);
  EXPECT_EQ(elems[0].string_or("name", ""), name);
}

TEST(ChromeTrace, CounterEventsEmitNumericSeriesArgs) {
  FlightRecorder rec(64);
  rec.record(FrEventType::LedgerCpu, 7, 2, 4.25, 5.0);
  const std::string json = chrome_trace_json(rec.snapshot(), short_name);
  EXPECT_NE(json.find("\"name\":\"ledger N2 cpu_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Counter args are raw numbers (Chrome overlays each key as a series).
  EXPECT_NE(json.find("\"predicted\":4.25"), std::string::npos);
  EXPECT_NE(json.find("\"actual\":5"), std::string::npos);
  EXPECT_EQ(json.find("\"predicted\":\""), std::string::npos);
}

TEST(ChromeTrace, HostSpansNestByContainmentOnOneLane) {
  FlightRecorder rec(64);
  rec.record(FrEventType::FrameStart, 0, -1, 1.0);
  {
    const ScopedTimer task;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    rec.record(FrEventType::TaskSpan, 0, 3, task.elapsed_ms());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  rec.record(FrEventType::FrameEnd, 0, -1, 2.0);

  const std::vector<common::JsonValue> elems =
      elements(chrome_trace_json(rec.snapshot(), short_name));
  const common::JsonValue* frame = find_element(elems, "frame 0", kHostPid);
  const common::JsonValue* task = find_element(elems, "N3", kHostPid);
  ASSERT_NE(frame, nullptr);
  ASSERT_NE(task, nullptr);
  const f64 frame_ts = frame->number_or("ts", 0);
  const f64 task_ts = task->number_or("ts", 0);
  EXPECT_GE(task_ts + 1e-3, frame_ts);
  EXPECT_LE(task_ts + task->number_or("dur", 0),
            frame_ts + frame->number_or("dur", 0) + 1e-3);
  EXPECT_GT(task->number_or("dur", 0), 0.0);
  EXPECT_EQ(task->number_or("tid", -1), frame->number_or("tid", -2));
}

TEST(ChromeTrace, FrameSpansPairOnTheirOwnThreadFirst) {
  // Two streams on two threads use the same frame id; each frame_end closes
  // its own thread's frame, not the newest start of that id.
  FlightRecorder rec(64);
  rec.record(FrEventType::FrameStart, 5, -1, 1.0);
  std::promise<void> other_started;
  std::promise<void> main_ended;
  std::thread other([&] {
    rec.record(FrEventType::FrameStart, 5, -1, 2.0);
    other_started.set_value();
    main_ended.get_future().wait();
    rec.record(FrEventType::FrameEnd, 5, -1, 20.0);
  });
  other_started.get_future().wait();
  // The newest open start of frame 5 is the other thread's.
  rec.record(FrEventType::FrameEnd, 5, -1, 10.0);
  main_ended.set_value();
  other.join();

  usize frames = 0;
  for (const common::JsonValue& e :
       elements(chrome_trace_json(rec.snapshot(), short_name))) {
    if (e.string_or("name", "") != "frame 5") continue;
    ++frames;
    const common::JsonValue& args = e.get("args");
    EXPECT_EQ(args.number_or("measured_ms", 0) / 10.0,
              args.number_or("predicted_ms", 0));
  }
  EXPECT_EQ(frames, 2u);
}

TEST(ChromeTrace, SimulatedFrameLaysTasksBackToBackWithHoldAndStripes) {
  FlightRecorder rec(64);
  rec.record(FrEventType::FrameStart, 3, -1, 9.0, /*sim start ms=*/100.0);
  rec.record(FrEventType::Repartition, 3, -1, 12.0, 10.0);
  rec.record(FrEventType::FrameEnd, 3, -1, /*measured=*/6.0, /*budget=*/10.0);
  rec.record(FrEventType::SimTask, 3, 0, 4.0, 1.0);
  rec.record(FrEventType::SimTask, 3, 1, 2.0, 2.0);

  const std::vector<common::JsonValue> elems =
      elements(chrome_trace_json(rec.snapshot(), short_name));
  const common::JsonValue* frame = find_element(elems, "frame 3", kSimPid);
  ASSERT_NE(frame, nullptr);
  EXPECT_DOUBLE_EQ(frame->number_or("ts", 0), 100000.0);
  EXPECT_DOUBLE_EQ(frame->number_or("dur", 0), 10000.0);  // max(6, 10) ms
  const common::JsonValue* hold =
      find_element(elems, "delay_line_hold", kSimPid);
  ASSERT_NE(hold, nullptr);
  EXPECT_DOUBLE_EQ(hold->number_or("ts", 0), 106000.0);
  EXPECT_DOUBLE_EQ(hold->number_or("dur", 0), 4000.0);
  const common::JsonValue* first = find_element(elems, "N0", kSimPid);
  const common::JsonValue* second = find_element(elems, "N1", kSimPid);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_DOUBLE_EQ(first->number_or("ts", 0), 100000.0);
  EXPECT_DOUBLE_EQ(second->number_or("ts", 0), 104000.0);
  EXPECT_DOUBLE_EQ(second->number_or("dur", 0), 2000.0);
  for (i32 s = 0; s < 2; ++s) {
    const common::JsonValue* stripe =
        find_element(elems, "N1 stripe " + std::to_string(s), kSimPid);
    ASSERT_NE(stripe, nullptr);
    EXPECT_EQ(stripe->number_or("tid", 0), static_cast<f64>(s + 1));
    EXPECT_DOUBLE_EQ(stripe->number_or("ts", 0), 104000.0);
  }
  EXPECT_NE(find_element(elems, "repartition", kSimPid), nullptr);
  // The same frame's host view: its span and the repartition instant.
  EXPECT_NE(find_element(elems, "frame 3", kHostPid), nullptr);
  EXPECT_NE(find_element(elems, "repartition", kHostPid), nullptr);
}

TEST(ChromeTrace, MalformedPayloadsStillGiveValidJson) {
  // What a hand-edited post-mortem bundle may carry: non-finite values and
  // an absurd stripe count.
  std::vector<FlightEvent> events(4);
  events[0].type = FrEventType::TaskSpan;
  events[0].a = std::numeric_limits<f64>::quiet_NaN();
  events[1].type = FrEventType::FrameStart;
  events[1].frame = 1;
  events[2].type = FrEventType::FrameEnd;
  events[2].frame = 1;
  events[2].a = 1.0;
  events[3].type = FrEventType::SimTask;
  events[3].frame = 1;
  events[3].a = 1.0;
  events[3].b = 1e12;
  usize stripes = 0;
  for (const common::JsonValue& e :
       elements(chrome_trace_json(events, short_name))) {
    if (e.string_or("cat", "") == "stripe") ++stripes;
  }
  EXPECT_EQ(stripes, 64u);
}

TEST(ChromeTrace, ConcurrentSpansLoseNothingWithinCapacity) {
  FlightRecorder rec(1024);
  constexpr i32 kThreads = 8;
  constexpr i32 kPerThread = 500;
  std::vector<std::thread> threads;
  for (i32 t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      for (i32 i = 0; i < kPerThread; ++i) {
        rec.record(FrEventType::PoolJob, -1, -1, 0.001);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rec.size(), static_cast<usize>(kThreads * kPerThread));

  usize spans = 0;
  std::set<f64> lanes;
  for (const common::JsonValue& e :
       elements(chrome_trace_json(rec.snapshot(), short_name))) {
    if (e.string_or("name", "") != "pool_job") continue;
    ++spans;
    lanes.insert(e.number_or("tid", -1));
  }
  EXPECT_EQ(spans, static_cast<usize>(kThreads * kPerThread));
  EXPECT_EQ(lanes.size(), static_cast<usize>(kThreads));
}

TEST(ChromeTrace, ClearedRecorderExportsNoEvents) {
  ObsContext ctx;
  ctx.flight.record(FrEventType::TaskSpan, 0, 1, 1.0);
  ctx.flight.record(FrEventType::Custom, 0);
  ctx.clear();
  EXPECT_TRUE(elements(chrome_trace_json(ctx)).empty());
}

#ifdef TRIPLEC_POSTMORTEM_BIN
TEST(ChromeTrace, PostmortemToolWritesTheInProcessTrace) {
  ObsContext ctx;
  ctx.set_node_namer(short_name);
  // One host frame with a task, a pool job on another thread, a ledger
  // counter, a simulated frame and an instant — values that only an exact
  // number round trip through the bundle reproduces.
  FlightRecorder& rec = ctx.flight;
  rec.record(FrEventType::FrameStart, 1, -1, 1.0 / 3.0, 12.125);
  rec.record(FrEventType::TaskSpan, 1, 2, 0.1);
  std::thread worker([&rec] {
    rec.record(FrEventType::PoolJob, -1, -1, 2.0 / 7.0);
  });
  worker.join();
  rec.record(FrEventType::QosTransition, 1, -1, 1.0, 0.0);
  rec.record(FrEventType::FrameEnd, 1, -1, 5.0 / 3.0, 2.5);
  rec.record(FrEventType::SimTask, 1, 0, 1.0 / 9.0, 2.0);
  rec.record(FrEventType::LedgerCpu, 1, 0, 0.7, 0.9);

  PostmortemContext pm;
  pm.reason = "manual";
  pm.frame = 1;
  for (i32 node = 0; node < 3; ++node) {
    pm.predictors.nodes.push_back({ctx.node_name(node), 0.0, false});
  }
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("tc_chrome_trace_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path bundle = dir / "bundle.json";
  const fs::path out = dir / "pm_trace.json";
  std::ofstream(bundle) << bundle_json(pm, rec.snapshot(), ctx.metrics);

  const std::string cmd = std::string(TRIPLEC_POSTMORTEM_BIN) + " " +
                          bundle.string() + " --chrome " + out.string() +
                          " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  std::ostringstream written;
  written << std::ifstream(out).rdbuf();
  fs::remove_all(dir);

  const std::string in_process = chrome_trace_json(ctx);
  EXPECT_EQ(written.str(), in_process);
  EXPECT_NE(in_process.find("\"ph\":\"X\""), std::string::npos);
}
#endif

}  // namespace
}  // namespace tc::obs
