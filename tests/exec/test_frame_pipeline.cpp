// Pipelined execution must be *byte-identical* to serial execution: the
// FrameContext/StreamState refactor promises that overlapping run_back(t-1)
// with run_front(t) — plus striped/batched instance fan-out on a real
// thread pool — changes only host wall-clock, never a FrameRecord field
// (host_ms excluded, it measures the host by definition).

#include "exec/frame_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "app/stentboost.hpp"
#include "exec/executor.hpp"
#include "obs/obs.hpp"
#include "runtime/partition.hpp"

namespace tc::exec {
namespace {

/// Config whose sequence walks the scenario space: a contrast bolus toggles
/// SW_RDG, ROI estimation toggles SW_ROI, marker dropout fails SW_REG.
app::StentBoostConfig sweep_config(u64 seed = 5) {
  app::StentBoostConfig c = app::StentBoostConfig::make(128, 128, 60, seed);
  c.sequence.contrast_in_frame = 15;
  c.sequence.contrast_out_frame = 45;
  c.sequence.marker_dropout_prob = 0.10;
  return c;
}

void expect_identical(const graph::FrameRecord& s, const graph::FrameRecord& p) {
  ASSERT_EQ(s.frame, p.frame);
  ASSERT_EQ(s.scenario, p.scenario) << "frame " << s.frame;
  ASSERT_EQ(s.latency_ms, p.latency_ms) << "frame " << s.frame;
  ASSERT_EQ(s.roi_pixels, p.roi_pixels) << "frame " << s.frame;
  ASSERT_EQ(s.tasks.size(), p.tasks.size()) << "frame " << s.frame;
  for (usize i = 0; i < s.tasks.size(); ++i) {
    const graph::TaskExecution& a = s.tasks[i];
    const graph::TaskExecution& b = p.tasks[i];
    ASSERT_EQ(a.node, b.node) << "frame " << s.frame << " task " << i;
    ASSERT_EQ(a.executed, b.executed)
        << "frame " << s.frame << " " << app::node_name(a.node);
    ASSERT_EQ(a.simulated_ms, b.simulated_ms)
        << "frame " << s.frame << " " << app::node_name(a.node);
    ASSERT_EQ(a.work.pixel_ops, b.work.pixel_ops)
        << "frame " << s.frame << " " << app::node_name(a.node);
    ASSERT_EQ(a.work.feature_ops, b.work.feature_ops)
        << "frame " << s.frame << " " << app::node_name(a.node);
    ASSERT_EQ(a.work.bytes_read, b.work.bytes_read)
        << "frame " << s.frame << " " << app::node_name(a.node);
    ASSERT_EQ(a.work.bytes_written, b.work.bytes_written)
        << "frame " << s.frame << " " << app::node_name(a.node);
    ASSERT_EQ(a.work.input_bytes, b.work.input_bytes)
        << "frame " << s.frame << " " << app::node_name(a.node);
    ASSERT_EQ(a.work.intermediate_bytes, b.work.intermediate_bytes)
        << "frame " << s.frame << " " << app::node_name(a.node);
    ASSERT_EQ(a.work.output_bytes, b.work.output_bytes)
        << "frame " << s.frame << " " << app::node_name(a.node);
    ASSERT_EQ(a.work.items, b.work.items)
        << "frame " << s.frame << " " << app::node_name(a.node);
    ASSERT_EQ(a.work.data_parallel, b.work.data_parallel)
        << "frame " << s.frame << " " << app::node_name(a.node);
    // host_ms intentionally excluded: it measures the host.
  }
}

/// Serial reference vs. a pipelined run over the same pre-rendered images
/// and the same stripe plan; `frames_in_flight` frames overlap.
void run_comparison(const app::StripePlan& plan, i32 frames_in_flight,
                    const app::InstanceBudget& budget, i32 pool_threads) {
  const app::StentBoostConfig config = sweep_config();
  const i32 n = 60;
  const img::AngioSequence sequence(config.sequence);
  std::vector<img::ImageU16> images;
  images.reserve(static_cast<usize>(n));
  for (i32 t = 0; t < n; ++t) images.push_back(sequence.render(t));

  app::StentBoostApp serial(config);
  serial.set_stripe_plan(plan);
  std::vector<graph::FrameRecord> serial_records;
  for (i32 t = 0; t < n; ++t) {
    serial_records.push_back(serial.process_image(t, images[static_cast<usize>(t)]));
  }

  plat::ThreadPool pool(static_cast<usize>(pool_threads));
  app::StentBoostApp piped(config, &pool);
  piped.set_stripe_plan(plan);
  piped.set_instance_budget(budget);
  std::vector<graph::FrameRecord> piped_records;
  FramePipelineConfig pc;
  pc.frames_in_flight = frames_in_flight;
  pc.on_retire = [&](const graph::FrameRecord& r) {
    piped_records.push_back(r);
  };
  FramePipeline pipeline(piped, pc);
  for (i32 t = 0; t < n; ++t) {
    ASSERT_TRUE(pipeline.submit(t, images[static_cast<usize>(t)]));
  }
  pipeline.drain();

  ASSERT_EQ(piped_records.size(), static_cast<usize>(n));
  std::set<graph::ScenarioId> seen;
  for (i32 t = 0; t < n; ++t) {
    const graph::FrameRecord& p = piped_records[static_cast<usize>(t)];
    ASSERT_EQ(p.frame, t);  // retires in frame order
    expect_identical(serial_records[static_cast<usize>(t)], p);
    seen.insert(p.scenario);
  }
  // The sweep actually exercises the scenario space (bolus + dropout).
  EXPECT_GE(seen.size(), 4u);
}

TEST(FramePipeline, TwoInFlightSerialPlanMatchesSerial) {
  run_comparison(app::serial_plan(), /*frames_in_flight=*/2,
                 app::InstanceBudget{}, /*pool_threads=*/2);
}

TEST(FramePipeline, ThreeInFlightStripedMatchesSerial) {
  app::StripePlan plan = app::serial_plan();
  for (i32 node = 0; node < app::kNodeCount; ++node) {
    if (app::node_data_parallel(node)) plan[static_cast<usize>(node)] = 4;
  }
  rt::PlanChoice choice;
  choice.plan = plan;
  run_comparison(plan, /*frames_in_flight=*/3,
                 rt::budget_for_plan(choice, 4, 3), /*pool_threads=*/4);
}

TEST(FramePipeline, ThrottledBudgetSerializesInstancesIdentically) {
  // max_concurrent == 1 forces every fan-out onto the slot thread; the
  // records must not notice.
  app::StripePlan plan = app::serial_plan();
  plan[app::kRdgFull] = 3;
  plan[app::kRdgRoi] = 3;
  plan[app::kZoom] = 3;
  app::InstanceBudget budget;
  budget.max_concurrent = 1;
  budget.pool_share = 3;
  run_comparison(plan, /*frames_in_flight=*/2, budget, /*pool_threads=*/4);
}

TEST(FramePipeline, AdmitAndRetireHooksFireInFrameOrder) {
  const app::StentBoostConfig config = sweep_config();
  plat::ThreadPool pool(2);
  app::StentBoostApp app(config, &pool);
  std::vector<i32> admitted;
  std::vector<i32> retired;
  FramePipelineConfig pc;
  pc.frames_in_flight = 2;
  pc.on_admit = [&](i32 t) { admitted.push_back(t); };
  pc.on_retire = [&](const graph::FrameRecord& r) { retired.push_back(r.frame); };
  FramePipeline pipeline(app, pc);
  const i32 n = 12;
  for (i32 t = 0; t < n; ++t) pipeline.submit(t);
  pipeline.drain();
  ASSERT_EQ(admitted.size(), static_cast<usize>(n));
  ASSERT_EQ(retired.size(), static_cast<usize>(n));
  for (i32 t = 0; t < n; ++t) {
    EXPECT_EQ(admitted[static_cast<usize>(t)], t);
    EXPECT_EQ(retired[static_cast<usize>(t)], t);
  }
}

struct InFlightProbe {
  i32 peak = 0;
  /// Some frame t was admitted before frame t-1 retired.
  bool overlapped = false;
};

/// Run 24 pre-rendered frames through a pipeline with a slow back half:
/// on_retire(t) first waits until frame t+k-1 is admitted (the window can
/// be full), then sleeps 3 ms, so a pipeline that admits past its bound has
/// time to show it.  Reports the peak number of frames between on_admit
/// and on_retire.
InFlightProbe probe_in_flight(i32 k) {
  const i32 n = 24;
  const app::StentBoostConfig config =
      app::StentBoostConfig::make(128, 128, n, 5);
  const img::AngioSequence sequence(config.sequence);
  std::vector<img::ImageU16> images;
  for (i32 t = 0; t < n; ++t) images.push_back(sequence.render(t));

  plat::ThreadPool pool(4);
  app::StentBoostApp app(config, &pool);
  std::atomic<i32> admitted{0};
  std::atomic<i32> retired{0};
  InFlightProbe probe;  // written on the submitting thread only
  FramePipelineConfig pc;
  pc.frames_in_flight = k;
  pc.on_admit = [&](i32 t) {
    if (retired.load() < t) probe.overlapped = true;
    const i32 in_flight = admitted.fetch_add(1) + 1 - retired.load();
    probe.peak = std::max(probe.peak, in_flight);
  };
  pc.on_retire = [&](const graph::FrameRecord& r) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (admitted.load() < std::min(n, r.frame + k) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    retired.fetch_add(1);
  };
  FramePipeline pipeline(app, pc);
  for (i32 t = 0; t < n; ++t) {
    pipeline.submit(t, images[static_cast<usize>(t)]);
  }
  pipeline.drain();
  EXPECT_EQ(retired.load(), n);
  return probe;
}

TEST(FramePipeline, InFlightBoundIsExact) {
  for (i32 k = 1; k <= 3; ++k) {
    const InFlightProbe probe = probe_in_flight(k);
    EXPECT_EQ(probe.peak, k) << "frames_in_flight " << k;
    // k = 1 runs frames one at a time; k >= 2 admits frame t+1 while frame
    // t is still in its back half.
    EXPECT_EQ(probe.overlapped, k >= 2) << "frames_in_flight " << k;
  }
}

TEST(FramePipeline, DrainIsIdempotentAndSubmitAfterDrainFails) {
  plat::ThreadPool pool(2);
  app::StentBoostApp app(sweep_config(), &pool);
  i32 retired = 0;
  FramePipelineConfig pc;
  pc.on_retire = [&](const graph::FrameRecord&) { ++retired; };
  FramePipeline pipeline(app, pc);
  ASSERT_TRUE(pipeline.submit(0));
  ASSERT_TRUE(pipeline.submit(1));
  pipeline.drain();
  pipeline.drain();  // second drain is a no-op
  EXPECT_FALSE(pipeline.submit(2));
  EXPECT_EQ(retired, 2);
}

TEST(FramePipeline, DestructorJoinsWithoutExplicitDrain) {
  plat::ThreadPool pool(2);
  app::StentBoostApp app(sweep_config(), &pool);
  std::vector<i32> retired;
  {
    FramePipelineConfig pc;
    pc.on_retire = [&](const graph::FrameRecord& r) {
      retired.push_back(r.frame);
    };
    FramePipeline pipeline(app, pc);
    for (i32 t = 0; t < 3; ++t) ASSERT_TRUE(pipeline.submit(t));
    // No drain(): the destructor must finish all three frames and join.
  }
  EXPECT_EQ(retired, (std::vector<i32>{0, 1, 2}));
}

TEST(FramePipeline, RecordsOneStageSpanPerHalf) {
  obs::global().clear();
  obs::set_enabled(true);
  const i32 n = 5;
  {
    plat::ThreadPool pool(2);
    app::StentBoostApp app(sweep_config(), &pool);
    FramePipeline pipeline(app);
    for (i32 t = 0; t < n; ++t) pipeline.submit(t);
    pipeline.drain();
  }
  obs::set_enabled(false);

  i32 starts = 0;
  std::map<std::pair<i32, i32>, i32> ends;  // (frame, half) -> stage_ends
  for (const obs::FlightEvent& e : obs::global().flight.snapshot()) {
    if (e.type == obs::FrEventType::StageStart) ++starts;
    if (e.type == obs::FrEventType::StageEnd) {
      ++ends[{e.frame, e.node}];
      EXPECT_GE(e.a, 0.0);  // the half's wall ms
    }
  }
  obs::global().clear();
  EXPECT_EQ(starts, 2 * n);
  EXPECT_EQ(ends.size(), static_cast<usize>(2 * n));
  for (i32 t = 0; t < n; ++t) {
    EXPECT_EQ((ends[{t, 0}]), 1) << "front of frame " << t;
    EXPECT_EQ((ends[{t, 1}]), 1) << "back of frame " << t;
  }
}

TEST(FramePipeline, ExecutorRunPipelinedMatchesSerialRecords) {
  // End to end through the executor: a fixed deadline no forecast can
  // exceed pins the serial plan, so run() and run_pipelined() must produce
  // frames with identical simulated content.
  ExecutorConfig ec;
  ec.worker_threads = 2;
  ec.deadline_ms = 1e9;
  ec.validate_at_startup = false;
  Executor serial(sweep_config(), ec);
  Executor piped(sweep_config(), ec);
  const i32 n = 24;
  std::vector<ExecutedFrame> a = serial.run(n);
  std::vector<ExecutedFrame> b = piped.run_pipelined(n, 2);
  ASSERT_EQ(a.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].frame, b[i].frame);
    EXPECT_EQ(a[i].scenario, b[i].scenario) << "frame " << a[i].frame;
    EXPECT_EQ(a[i].plan, b[i].plan) << "frame " << a[i].frame;
  }
  EXPECT_EQ(serial.stats().frames, piped.stats().frames);
}

}  // namespace
}  // namespace tc::exec
