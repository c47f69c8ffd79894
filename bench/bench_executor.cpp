// Executor bench — serial vs stripe-parallel execution of the real
// StentBoost graph on host worker threads, plus functional and hybrid
// variants of a kernel-backed three-stage pipeline (exec::StagePipeline).
//
// Writes BENCH_executor.json (consumed by CI as an artifact) with wall
// clock, per-frame latency, throughput and speedup vs. serial per
// configuration.
//
// Usage: bench_executor [--frames N] [--size S] [--workers W] [--reps R]
//
// With --reps > 1 every configuration is run R times and the *median* wall
// clock is reported — the number bench/compare_bench.py diffs against the
// committed baseline, so one noisy scheduler burp doesn't flag a regression.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/stentboost.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "exec/executor.hpp"
#include "exec/frame_pipeline.hpp"
#include "exec/stage_pipeline.hpp"
#include "imaging/kernels.hpp"
#include "obs/exporters.hpp"
#include "obs/obs.hpp"
#include "obs/scoped_timer.hpp"
#include "runtime/partition.hpp"

using namespace tc;

namespace {

struct Options {
  i32 frames = 48;
  i32 size = 256;
  i32 workers = 4;
  i32 reps = 1;
  /// Smoke mode (CI/TSan): run everything, skip the speedup exit gate —
  /// sanitized or oversubscribed hosts make wall-clock wins meaningless.
  bool smoke = false;
  /// Prediction-ledger phase: run the closed-loop executor with the ledger
  /// on (natural scenario dynamics, not the pinned full-frame scenario of
  /// the timed rows) and dump the ledger for triplec_ledger.
  bool ledger = false;
  std::string ledger_out = "BENCH_ledger.json";
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](i32& field) {
      if (i + 1 < argc) field = std::atoi(argv[++i]);
    };
    if (std::strcmp(argv[i], "--frames") == 0) next(opt.frames);
    else if (std::strcmp(argv[i], "--size") == 0) next(opt.size);
    else if (std::strcmp(argv[i], "--workers") == 0) next(opt.workers);
    else if (std::strcmp(argv[i], "--reps") == 0) next(opt.reps);
    else if (std::strcmp(argv[i], "--smoke") == 0) opt.smoke = true;
    else if (std::strcmp(argv[i], "--ledger") == 0) opt.ledger = true;
    else if (std::strcmp(argv[i], "--ledger-out") == 0 && i + 1 < argc)
      opt.ledger_out = argv[++i];
  }
  opt.reps = std::max(opt.reps, 1);
  return opt;
}

/// Run `measure` `reps` times and return the median wall time.
f64 median_wall(i32 reps, const std::function<f64()>& measure) {
  std::vector<f64> walls;
  walls.reserve(static_cast<usize>(reps));
  for (i32 r = 0; r < reps; ++r) walls.push_back(measure());
  std::sort(walls.begin(), walls.end());
  const usize n = walls.size();
  return n % 2 == 1 ? walls[n / 2] : 0.5 * (walls[n / 2 - 1] + walls[n / 2]);
}

struct Row {
  std::string name;
  f64 wall_ms = 0.0;
  f64 ms_per_frame = 0.0;
  f64 fps = 0.0;
  f64 speedup = 1.0;  // vs. the family's serial row
};

Row make_row(std::string name, f64 wall_ms, i32 frames, f64 serial_wall_ms) {
  Row r;
  r.name = std::move(name);
  r.wall_ms = wall_ms;
  r.ms_per_frame = wall_ms / frames;
  r.fps = 1000.0 * frames / wall_ms;
  r.speedup = serial_wall_ms > 0.0 ? serial_wall_ms / wall_ms : 1.0;
  return r;
}

void print_rows(const char* family, const std::vector<Row>& rows) {
  std::printf("%s:\n", family);
  std::printf("  %-24s %10s %10s %10s %10s\n", "config", "wall ms",
              "ms/frame", "fps", "speedup");
  for (const Row& r : rows) {
    std::printf("  %-24s %10.1f %10.2f %10.1f %9.2fx\n", r.name.c_str(),
                r.wall_ms, r.ms_per_frame, r.fps, r.speedup);
  }
  std::printf("\n");
}

// --- family 1: the real StentBoost graph, serial vs. striped ---------------

app::StentBoostConfig app_config(const Options& opt) {
  app::StentBoostConfig config = app::StentBoostConfig::make(
      opt.size, opt.size, opt.frames, /*seed=*/11);
  // Pin the heavy full-frame scenario so serial and striped runs execute an
  // identical node set every frame.
  config.force_full_frame = true;
  config.dominant_low = 0;
  return config;
}

f64 run_app(const Options& opt, const std::vector<img::ImageU16>& frames,
            plat::ThreadPool* pool, i32 stripes) {
  app::StentBoostApp app(app_config(opt), pool);
  app::StripePlan plan = app::serial_plan();
  for (i32 node = 0; node < app::kNodeCount; ++node) {
    if (app::node_data_parallel(node)) plan[static_cast<usize>(node)] = stripes;
  }
  app.set_stripe_plan(plan);
  obs::ScopedTimer timer;
  for (i32 t = 0; t < opt.frames; ++t) {
    (void)app.process_image(t, frames[static_cast<usize>(t)]);
  }
  return timer.elapsed_ms();
}

/// The real graph through the two-stage frame pipeline (front || back) with
/// striped instance fan-out on the shared pool — the hybrid functional +
/// data partitioning of paper §6 on real kernels.
f64 run_app_pipelined(const Options& opt,
                      const std::vector<img::ImageU16>& frames,
                      plat::ThreadPool* pool, i32 stripes,
                      i32 frames_in_flight) {
  app::StentBoostApp app(app_config(opt), pool);
  app::StripePlan plan = app::serial_plan();
  for (i32 node = 0; node < app::kNodeCount; ++node) {
    if (app::node_data_parallel(node)) plan[static_cast<usize>(node)] = stripes;
  }
  app.set_stripe_plan(plan);
  rt::PlanChoice choice;
  choice.plan = plan;
  app.set_instance_budget(rt::budget_for_plan(
      choice, pool != nullptr ? narrow<i32>(pool->thread_count()) : 1,
      frames_in_flight));

  exec::FramePipelineConfig config;
  config.frames_in_flight = frames_in_flight;
  config.collect_records = false;
  exec::FramePipeline pipeline(app, config);
  obs::ScopedTimer timer;
  for (i32 t = 0; t < opt.frames; ++t) {
    pipeline.submit(t, frames[static_cast<usize>(t)]);
  }
  pipeline.drain();
  return timer.elapsed_ms();
}

// --- family 2: kernel-backed 3-stage pipeline (functional / hybrid) --------

struct Payload {
  img::ImageF32 input;
  img::ImageF32 previous;
  img::ImageF32 blurred;
  img::ImageF32 diff;
  img::ImageF32 zoomed;
};

std::shared_ptr<Payload> make_payload(const img::ImageU16& frame,
                                      const img::ImageU16& prev, i32 size) {
  auto p = std::make_shared<Payload>();
  p->input = img::to_f32(frame);
  p->previous = img::to_f32(prev);
  p->blurred = img::ImageF32(size, size);
  p->zoomed = img::ImageF32(size, size);
  return p;
}

std::vector<exec::StageSpec> pipeline_stages(i32 stripes) {
  std::vector<exec::StageSpec> stages;
  stages.push_back(exec::StageSpec{
      "analysis",
      [](exec::FramePacket& packet, const exec::StageContext& ctx) {
        auto& p = *static_cast<Payload*>(packet.payload.get());
        exec::parallel_rows(ctx, p.input.height(), [&p](IndexRange rows) {
          img::gaussian_blur_rows(p.input, 2.0, p.blurred, rows);
        });
      },
      stripes});
  stages.push_back(exec::StageSpec{
      "features",
      [](exec::FramePacket& packet, const exec::StageContext&) {
        auto& p = *static_cast<Payload*>(packet.payload.get());
        p.diff = img::temporal_difference(p.blurred, p.previous);
      },
      1});
  stages.push_back(exec::StageSpec{
      "display",
      [](exec::FramePacket& packet, const exec::StageContext& ctx) {
        auto& p = *static_cast<Payload*>(packet.payload.get());
        const Rect src{8, 8, p.diff.width() - 16, p.diff.height() - 16};
        exec::parallel_rows(ctx, p.zoomed.height(), [&p, src](IndexRange rows) {
          img::resample_bicubic_rows(p.diff, p.zoomed, src, rows);
        });
      },
      stripes});
  return stages;
}

f64 run_pipeline_serial(const std::vector<std::shared_ptr<Payload>>& payloads) {
  obs::ScopedTimer timer;
  for (const auto& p : payloads) {
    img::gaussian_blur_rows(p->input, 2.0, p->blurred,
                            IndexRange{0, p->input.height()});
    p->diff = img::temporal_difference(p->blurred, p->previous);
    const Rect src{8, 8, p->diff.width() - 16, p->diff.height() - 16};
    img::resample_bicubic_rows(p->diff, p->zoomed, src,
                               IndexRange{0, p->zoomed.height()});
  }
  return timer.elapsed_ms();
}

f64 run_pipeline(const Options& opt,
                 const std::vector<std::shared_ptr<Payload>>& payloads,
                 i32 stripes, plat::ThreadPool* pool, u64* backpressure) {
  exec::PipelineConfig config;
  config.queue_capacity = 2;
  config.stripe_pool = pool;
  exec::StagePipeline pipeline(pipeline_stages(stripes), config);
  obs::ScopedTimer timer;
  pipeline.start();
  for (i32 t = 0; t < opt.frames; ++t) {
    pipeline.submit(t, payloads[static_cast<usize>(t)]);
  }
  pipeline.drain();
  const f64 wall = timer.elapsed_ms();
  if (backpressure != nullptr) {
    *backpressure = pipeline.stats().backpressure_events;
  }
  return wall;
}

/// The --ledger phase: a closed-loop executor run with the prediction
/// ledger on and *natural* scenario dynamics (force_full_frame off, so the
/// data-dependent switches produce their full scenario set), dumped as a
/// triplec-ledger-v1 document for tools/triplec_ledger.
void run_ledger_phase(const Options& opt) {
  app::StentBoostConfig config = app::StentBoostConfig::make(
      opt.size, opt.size, opt.frames, /*seed=*/23);
  exec::ExecutorConfig ec;
  ec.worker_threads = opt.workers;
  ec.ledger.enabled = true;
  ec.ledger.capacity = 0;  // keep every row; the report scores them all
  exec::Executor executor(std::move(config), ec);
  (void)executor.run(opt.frames);

  const obs::PredictionLedger* ledger = executor.ledger();
  std::vector<bool> seen(64, false);
  usize scenarios = 0;
  std::vector<f64> apes;
  for (const obs::LedgerRow& r : ledger->rows()) {
    if (r.scenario < seen.size() && !seen[r.scenario]) {
      seen[r.scenario] = true;
      ++scenarios;
    }
    if (const auto err = r.error_pct(obs::LedgerResource::CpuMs)) {
      apes.push_back(std::abs(*err));
    }
  }
  std::printf(
      "prediction ledger: %llu rows settled over %d frames, %zu scenarios\n",
      static_cast<unsigned long long>(ledger->rows_settled()), opt.frames,
      scenarios);
  if (!apes.empty()) {
    std::printf("ledger CPU APE: p50 %.2f%% mean %.2f%% p95 %.2f%% (%zu rows)\n",
                percentile(apes, 50.0), mean(apes), percentile(apes, 95.0),
                apes.size());
  }
  if (obs::write_text_file(opt.ledger_out, ledger->dump_json())) {
    std::printf("wrote %s (render with: triplec_ledger %s --worst 5)\n\n",
                opt.ledger_out.c_str(), opt.ledger_out.c_str());
  }
}

std::string to_json(const Options& opt, const std::vector<Row>& app_rows,
                    const std::vector<Row>& pipe_rows, u64 backpressure) {
  std::ostringstream os;
  auto rows = [&os](const char* family, const std::vector<Row>& r) {
    os << "  \"" << family << "\": [\n";
    for (usize i = 0; i < r.size(); ++i) {
      os << "    {\"name\": \"" << r[i].name << "\", \"wall_ms\": "
         << r[i].wall_ms << ", \"ms_per_frame\": " << r[i].ms_per_frame
         << ", \"fps\": " << r[i].fps << ", \"speedup_vs_serial\": "
         << r[i].speedup << "}" << (i + 1 < r.size() ? "," : "") << "\n";
    }
    os << "  ]";
  };
  os << "{\n";
  os << "  \"frames\": " << opt.frames << ",\n";
  os << "  \"size\": " << opt.size << ",\n";
  os << "  \"workers\": " << opt.workers << ",\n";
  os << "  \"reps\": " << opt.reps << ",\n";
  os << "  \"host_cores\": " << plat::affinity_cores() << ",\n";
  rows("stentboost_graph", app_rows);
  os << ",\n";
  rows("kernel_pipeline", pipe_rows);
  os << ",\n  \"pipeline_backpressure_events\": " << backpressure << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  bench::print_header(
      "Concurrent executor — serial vs stripe vs functional vs hybrid",
      "Albers et al., IPDPS 2009, Section 5 (partitioning at run time)");
  std::printf("frames=%d size=%dx%d workers=%d reps=%d (median)\n\n",
              opt.frames, opt.size, opt.size, opt.workers, opt.reps);

  // Pre-render the synthetic sequence once; rendering is not part of the
  // measured pipeline work.
  const app::StentBoostConfig config = app_config(opt);
  const img::AngioSequence sequence(config.sequence);
  std::vector<img::ImageU16> frames;
  frames.reserve(static_cast<usize>(opt.frames));
  for (i32 t = 0; t < opt.frames; ++t) frames.push_back(sequence.render(t));

  // --- real graph: serial vs striped ---------------------------------------
  plat::ThreadPool pool(static_cast<usize>(opt.workers));
  std::vector<Row> app_rows;
  const f64 serial_wall = median_wall(
      opt.reps, [&] { return run_app(opt, frames, nullptr, 1); });
  app_rows.push_back(make_row("serial", serial_wall, opt.frames, serial_wall));
  const f64 striped_wall = median_wall(
      opt.reps, [&] { return run_app(opt, frames, &pool, opt.workers); });
  app_rows.push_back(make_row("stripe_x" + std::to_string(opt.workers),
                              striped_wall, opt.frames, serial_wall));
  const f64 hybrid_pipe_wall = median_wall(opt.reps, [&] {
    return run_app_pipelined(opt, frames, &pool, opt.workers,
                             /*frames_in_flight=*/2);
  });
  app_rows.push_back(make_row("hybrid_pipeline_x" + std::to_string(opt.workers),
                              hybrid_pipe_wall, opt.frames, serial_wall));
  print_rows("stentboost graph (real kernels, full-frame scenario)", app_rows);

  // One instrumented hybrid run: prove the admit/commit/fan-out machinery is
  // exercised (the flight events the post-mortems and traces rely on).
  {
    obs::set_enabled(true);
    obs::global().flight.clear();
    (void)run_app_pipelined(opt, frames, &pool, opt.workers, 2);
    usize admits = 0, commits = 0, fanouts = 0;
    for (const obs::FlightEvent& e : obs::global().flight.snapshot()) {
      if (e.type == obs::FrEventType::CtxAdmit) ++admits;
      if (e.type == obs::FrEventType::CtxCommit) ++commits;
      if (e.type == obs::FrEventType::InstanceFanout) ++fanouts;
    }
    obs::set_enabled(false);
    std::printf("hybrid_pipeline flight events: %zu ctx admits, %zu commits, "
                "%zu instance fan-outs\n\n",
                admits, commits, fanouts);
  }

  // --- kernel pipeline: serial vs functional vs hybrid ---------------------
  auto payloads_for = [&](void) {
    std::vector<std::shared_ptr<Payload>> payloads;
    payloads.reserve(static_cast<usize>(opt.frames));
    for (i32 t = 0; t < opt.frames; ++t) {
      payloads.push_back(make_payload(frames[static_cast<usize>(t)],
                                      frames[static_cast<usize>(t > 0 ? t - 1 : 0)],
                                      opt.size));
    }
    return payloads;
  };

  std::vector<Row> pipe_rows;
  const f64 pipe_serial = median_wall(opt.reps, [&] {
    auto payloads = payloads_for();
    return run_pipeline_serial(payloads);
  });
  pipe_rows.push_back(make_row("serial", pipe_serial, opt.frames, pipe_serial));

  u64 backpressure = 0;
  const f64 functional_wall = median_wall(opt.reps, [&] {
    auto payloads = payloads_for();
    return run_pipeline(opt, payloads, 1, nullptr, &backpressure);
  });
  pipe_rows.push_back(
      make_row("functional_3stage", functional_wall, opt.frames, pipe_serial));

  const f64 hybrid_wall = median_wall(opt.reps, [&] {
    auto payloads = payloads_for();
    return run_pipeline(opt, payloads, opt.workers, &pool, nullptr);
  });
  pipe_rows.push_back(make_row(
      "hybrid_3stage_x" + std::to_string(opt.workers), hybrid_wall,
      opt.frames, pipe_serial));
  print_rows("kernel pipeline (blur | temporal diff | bicubic zoom)",
             pipe_rows);

  if (opt.ledger) run_ledger_phase(opt);

  const std::string json = to_json(opt, app_rows, pipe_rows, backpressure);
  if (obs::write_text_file("BENCH_executor.json", json)) {
    std::printf("wrote BENCH_executor.json\n");
  }

  const bool stripe_wins = striped_wall < serial_wall;
  std::printf("\nstripe-parallel %s serial (%.1f ms vs %.1f ms on %d workers)\n",
              stripe_wins ? "beats" : "DOES NOT beat", striped_wall,
              serial_wall, opt.workers);
  if (opt.smoke) {
    std::printf("(smoke mode; speedup gate skipped)\n");
    return 0;
  }
  const i32 cores = plat::affinity_cores();
  if (!stripe_wins && cores < 2) {
    // Striping cannot beat serial wall-clock without parallel hardware; the
    // numbers are still valid as an overhead measurement, so don't fail.
    std::printf("(process has %d core(s); speedup check skipped)\n", cores);
    return 0;
  }
  return stripe_wins ? 0 : 1;
}
