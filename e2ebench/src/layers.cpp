// Per-layer probes of the traced run.  Each probe calls one layer's public
// functions directly, on the workload's own frames and plans, and records a
// span per call.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "imaging/kernels.hpp"
#include "imaging/pipeline.hpp"
#include "imaging/synthetic.hpp"
#include "platform/thread_pool.hpp"
#include "runtime/partition.hpp"
#include "workloads.hpp"

namespace tcbench {

using namespace tc;

namespace {

/// Kernel calls per probe (p50 needs 20 samples).
constexpr int kKernelCalls = 20;
/// Frames of the run replayed through the app lifecycle (enough for the
/// p50s, the bolus onset and the node mix; bounds the traced run's time).
constexpr std::size_t kReplayFrames = 100;
constexpr int kPoolCalls = 2000;
constexpr int kSharedBatchReps = 20;
constexpr double kLongJobMs = 40.0;
constexpr int kPlanCalls = 2000;

void spin_ms(double ms) {
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
  while (Clock::now() < until) {
  }
}

void measure_exec(const StreamRun& run, Report& rep) {
  Samples step;
  Samples wait;
  double stripes = 0.0;
  long repartitions = 0;
  long misses = 0;
  for (std::size_t t = 0; t < run.steps.size(); ++t) {
    const StepRecord& r = run.steps[t];
    step.add(r.exec_step_ms);
    wait.add(run.loop.frames[t].queue_wait_ms());
    for (i32 s : r.frame.plan) stripes += s;
    repartitions += r.frame.repartitioned ? 1 : 0;
    misses += r.frame.deadline_miss ? 1 : 0;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, step.count()));
  set_percentile(rep, "exec.step_ms.p50", step, 0.50, "ms");
  set_percentile(rep, "exec.step_ms.p95", step, 0.95, "ms");
  set_percentile(rep, "exec.queue_wait_ms.p95", wait, 0.95, "ms",
                 "due time to step start");
  rep.set("exec.stripes_per_frame", stripes / n, "count", step.count(),
          "mean of the plan's stripe sum");
  rep.set("exec.repartitions", static_cast<double>(repartitions), "count",
          step.count());
  rep.set("exec.deadline_miss_pct", 100.0 * static_cast<double>(misses) / n,
          "%", step.count(), "executor's own deadline, task walls");
  std::printf("  exec: %zu steps, busy %.1f ms, queue wait %.1f ms\n",
              step.count(), step.mean() * n, wait.mean() * n);

  // Tracing cost: traced (even) frames against untraced (odd) frames.
  Samples traced;
  Samples untraced;
  for (std::size_t t = 0; t < run.loop.frames.size(); ++t) {
    (t % 2 == 0 ? traced : untraced).add(run.loop.frames[t].latency_ms());
  }
  const std::optional<double> a = traced.percentile(0.5);
  const std::optional<double> b = untraced.percentile(0.5);
  rep.set("harness.trace_overhead_ms", a && b ? *a - *b : 0.0, "ms",
          traced.count(), "p50 latency, traced frames minus untraced frames");
}

void measure_triplec(const exec::Executor& ex, Report& rep) {
  Samples ape;
  if (ex.ledger() != nullptr) {
    for (const obs::LedgerRow& row : ex.ledger()->rows()) {
      const std::optional<f64> err = row.error_pct(obs::LedgerResource::CpuMs);
      if (err.has_value()) ape.add(std::abs(*err));
    }
  }
  set_percentile(rep, "tripleC.cpu_ape_p50_pct", ape, 0.50, "%", "ledger CPU rows");
  set_percentile(rep, "tripleC.cpu_ape_p95_pct", ape, 0.95, "%", "ledger CPU rows");
}

/// Replay the run's first frames through the app lifecycle with the plans
/// the executor chose.  Returns the number of frames whose output differs
/// from what the executor displayed.
long replay_app(const app::StentBoostConfig& cfg, const StreamRun& run,
                int threads, SpanBuffer* spans, Report& rep) {
  plat::ThreadPool pool(kPoolThreads);
  app::StentBoostApp app(cfg, &pool);
  Samples render;
  Samples admit;
  Samples front;
  Samples back;
  Samples retire;
  Samples overhead;
  std::array<Samples, app::kNodeCount> node_ms;
  long mismatches = 0;
  const std::size_t frames = std::min(run.steps.size(), kReplayFrames);
  for (std::size_t i = 0; i < frames; ++i) {
    const i32 t = static_cast<i32>(i);
    const StepRecord& step = run.steps[i];
    rt::PlanChoice choice;
    choice.plan = step.frame.plan;
    app.set_stripe_plan(choice.plan);
    app.set_instance_budget(rt::budget_for_plan(choice, threads, 1));
    const ScopedSpan frame_span(spans, "app.frame", t);
    const std::int32_t parent = frame_span.id();

    Clock::time_point a = Clock::now();
    img::ImageU16 image;
    {
      const ScopedSpan span(spans, "imaging.render", t, parent);
      image = app.sequence().render(t);
    }
    Clock::time_point b = Clock::now();
    render.add(ms_between(a, b));
    app::FrameContext* ctx = nullptr;
    {
      const ScopedSpan span(spans, "app.admit", t, parent);
      ctx = app.admit_image(t, image);
    }
    a = Clock::now();
    admit.add(ms_between(b, a));
    {
      const ScopedSpan span(spans, "app.front", t, parent);
      app.run_front(*ctx);
    }
    b = Clock::now();
    front.add(ms_between(a, b));
    {
      const ScopedSpan span(spans, "app.back", t, parent);
      app.run_back(*ctx);
    }
    a = Clock::now();
    back.add(ms_between(b, a));
    graph::FrameRecord record;
    {
      const ScopedSpan span(spans, "app.retire", t, parent);
      record = app.retire_frame(*ctx);
    }
    b = Clock::now();
    retire.add(ms_between(a, b));

    // The executor's own task walls stand for front and back: they come
    // from the same execution as the step, so only render, admit and retire
    // are taken from the replay.
    overhead.add(step.exec_step_ms - step.frame.measured_host_ms -
                 render.values().back() - admit.values().back() -
                 retire.values().back());
    for (const graph::TaskExecution& e : record.tasks) {
      if (e.executed) node_ms[static_cast<std::size_t>(e.node)].add(e.host_ms);
    }
    if (image_digest(app.last_output()) != step.digest ||
        record.scenario != step.frame.scenario) {
      ++mismatches;
    }
  }
  set_percentile(rep, "app.admit_ms", admit, 0.5, "ms", "p50, replay");
  set_percentile(rep, "app.front_ms", front, 0.5, "ms", "p50, replay");
  set_percentile(rep, "app.back_ms", back, 0.5, "ms", "p50, replay");
  set_percentile(rep, "app.retire_ms", retire, 0.5, "ms", "p50, replay");
  set_percentile(rep, "exec.control_overhead_ms.p50", overhead, 0.5, "ms",
                 "step - task walls - render - admit - retire (last three replayed)");
  const std::optional<double> step_p50 = [&] {
    Samples s;
    for (const StepRecord& r : run.steps) s.add(r.exec_step_ms);
    return s.percentile(0.5);
  }();
  std::printf("  app replay: %zu frames, pool share %d, %ld outputs differ "
              "from the executor's; render p50 %.2f ms\n",
              frames, threads, mismatches,
              render.percentile(0.5).value_or(render.mean()));
  if (step_p50.has_value()) {
    std::printf("  exec.step_ms.p50 %.2f ms = render + lifecycle + "
                "unexplained remainder (exec.control_overhead_ms.p50)\n",
                *step_p50);
  }
  for (i32 node : {app::kRdgFull, app::kRdgRoi, app::kMkxFull, app::kMkxRoi,
                   app::kReg, app::kEnh, app::kZoom}) {
    const Samples& s = node_ms[static_cast<std::size_t>(node)];
    const std::string name =
        "app.node." + std::string(app::node_name(node)) + "_ms";
    rep.set(name, s.mean(), "ms", s.count(), "mean host ms per run; n = runs");
  }
  return mismatches;
}

/// Single-threaded kernel rates on the workload's own frames.
void measure_imaging(const app::StentBoostConfig& cfg, int frames,
                     SpanBuffer* spans, Report& rep) {
  const img::AngioSequence seq(cfg.sequence);
  const i32 w = cfg.sequence.width;
  const i32 h = cfg.sequence.height;
  const double mpx = static_cast<double>(w) * h / 1e6;
  const Rect roi{w / 4, h / 4, w / 2, h / 2};
  const double out_mpx = static_cast<double>(cfg.zoom.output_width) *
                         cfg.zoom.output_height / 1e6;
  Samples render;
  Samples blur;
  Samples hessian;
  Samples ridge;
  Samples bicubic;
  Samples zoom;
  Samples enhance;
  img::ImageF32 accumulator;
  img::HessianImages hess = img::make_hessian_images(w, h);
  img::ImageF32 response(w, h);
  auto timed = [&](const char* name, i32 t, auto&& fn) {
    const ScopedSpan span(spans, name, t);
    const Clock::time_point a = Clock::now();
    fn();
    return ms_between(a, Clock::now());
  };
  for (int k = 0; k < kKernelCalls; ++k) {
    const i32 t = static_cast<i32>(
        static_cast<long>(k) * std::max(1, frames - 1) / (kKernelCalls - 1));
    img::ImageU16 raw;
    render.add(timed("imaging.render", t, [&] { raw = seq.render(t); }));
    const img::ImageF32 frame = img::to_f32(raw);
    img::ImageF32 smooth;
    blur.add(mpx / (timed("imaging.gaussian_blur", t, [&] {
                      smooth = img::gaussian_blur(frame, cfg.ridge.sigma);
                    }) / 1000.0));
    hessian.add(mpx / (timed("imaging.hessian", t, [&] {
                         img::hessian_rows(smooth, hess, IndexRange{0, h});
                       }) / 1000.0));
    ridge.add(mpx / (timed("imaging.ridgeness", t, [&] {
                       img::ridgeness_rows(hess, response, IndexRange{0, h});
                     }) / 1000.0));
    bicubic.add(out_mpx / (timed("imaging.resample_bicubic", t, [&] {
                             (void)img::resample_bicubic(
                                 frame, cfg.zoom.output_width,
                                 cfg.zoom.output_height, roi);
                           }) / 1000.0));
    const img::ImageF32 enhanced = frame.crop(roi);
    zoom.add(out_mpx / (timed("imaging.zoom", t, [&] {
                          (void)img::zoom(enhanced, cfg.zoom);
                        }) / 1000.0));
    enhance.add(timed("imaging.enhance", t, [&] {
      img::EnhanceResult r =
          img::enhance(frame, roi, accumulator, 1.5, -0.75, cfg.enhance);
      accumulator = std::move(r.accumulator);
    }));
  }
  set_percentile(rep, "imaging.render_ms", render, 0.5, "ms",
                          "p50, fixed camera stand-in");
  set_percentile(rep, "imaging.gaussian_blur_mpx_s", blur, 0.5, "Mpx/s",
                          "p50, 1 thread");
  set_percentile(rep, "imaging.hessian_mpx_s", hessian, 0.5, "Mpx/s",
                          "p50, 1 thread");
  set_percentile(rep, "imaging.ridgeness_mpx_s", ridge, 0.5, "Mpx/s",
                          "p50, 1 thread");
  set_percentile(rep, "imaging.resample_bicubic_mpx_s", bicubic, 0.5, "Mpx/s",
                          "p50, output pixels, 1 thread");
  set_percentile(rep, "imaging.zoom_mpx_s", zoom, 0.5, "Mpx/s",
                          "p50, output pixels, 1 thread");
  set_percentile(rep, "imaging.enhance_ms", enhance, 0.5, "ms",
                          "p50, 1 thread");
}

void measure_platform(SpanBuffer* spans, Report& rep) {
  plat::ThreadPool pool(kPoolThreads);
  Samples empty_us;
  {
    const ScopedSpan span(spans, "platform.run_all_empty", -1);
    for (int i = 0; i < kPoolCalls; ++i) {
      std::vector<std::function<void()>> jobs(kPoolThreads, [] {});
      const Clock::time_point a = Clock::now();
      pool.run_all(std::move(jobs));
      empty_us.add(ms_between(a, Clock::now()) * 1000.0);
    }
  }
  set_percentile(rep, "platform.run_all_empty_us", empty_us, 0.5, "us",
                 "p50, 4 empty jobs");

  // A small batch submitted while another caller's long job is in flight.
  Samples wait_ms;
  for (int i = 0; i < kSharedBatchReps; ++i) {
    std::atomic<bool> started{false};
    std::thread other([&] {
      std::vector<std::function<void()>> jobs;
      jobs.emplace_back([&] {
        started.store(true, std::memory_order_release);
        spin_ms(kLongJobMs);
      });
      pool.run_all(std::move(jobs));
    });
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    const ScopedSpan span(spans, "platform.shared_batch", i);
    const Clock::time_point a = Clock::now();
    std::vector<std::function<void()>> jobs;
    jobs.emplace_back([] {});
    pool.run_all(std::move(jobs));
    wait_ms.add(ms_between(a, Clock::now()));
    other.join();
  }
  set_percentile(rep, "platform.shared_batch_wait_ms", wait_ms, 0.5, "ms",
                 "p50, 1 empty job behind another caller's 40 ms job");
  std::printf("  platform: shared-batch wait %.2f ms (p50 of %zu)\n",
              wait_ms.percentile(0.5).value_or(wait_ms.mean()), wait_ms.count());
}

void measure_runtime(const exec::Executor& ex, SpanBuffer* spans, Report& rep) {
  const std::vector<rt::NodeForecast> fc = ex.host_forecast();
  const exec::ExecutorConfig& ec = ex.config();
  Samples us;
  const ScopedSpan span(spans, "runtime.choose_plan", -1);
  for (int i = 0; i < kPlanCalls; ++i) {
    const Clock::time_point a = Clock::now();
    (void)rt::choose_plan(ec.host_cost, fc, ex.deadline_ms(),
                          ec.max_stripes_per_task, ex.effective_threads());
    us.add(ms_between(a, Clock::now()) * 1000.0);
  }
  set_percentile(rep, "runtime.choose_plan_us", us, 0.5, "us",
                 "p50 on the run's last host_forecast()");
}

}  // namespace

void measure_stream_layers(exec::Executor& ex, const app::StentBoostConfig& cfg,
                           const StreamRun& run, const Samples& reference_ms,
                           SpanBuffer* spans, Report& rep, long& failed) {
  std::printf("per-layer probes:\n");
  measure_exec(run, rep);
  measure_triplec(ex, rep);
  failed += replay_app(cfg, run, ex.effective_threads(), spans, rep);
  rep.set("app.serial_frame_ms", reference_ms.mean(), "ms",
          reference_ms.count(), "mean, serial reference, render excluded");
  measure_imaging(cfg, static_cast<int>(run.steps.size()), spans, rep);
  measure_platform(spans, rep);
  measure_runtime(ex, spans, rep);
}

void print_span_summary(const SpanBuffer& spans) {
  struct Agg {
    long calls = 0;
    double busy_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<double> child_ms(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans.at(i);
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] +=
          (s.end_us - s.start_us) / 1000.0;
    }
  }
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans.at(i);
    Agg& a = by_name[s.name];
    const double ms = (s.end_us - s.start_us) / 1000.0;
    ++a.calls;
    a.busy_ms += ms;
    a.self_ms += ms - child_ms[i];
  }
  std::printf("spans (%zu recorded, %zu dropped):\n", spans.size(),
              spans.dropped());
  std::printf("  %-28s %8s %12s %12s\n", "span", "calls", "busy_ms", "self_ms");
  for (const auto& [name, a] : by_name) {
    std::printf("  %-28s %8ld %12.2f %12.2f\n", name.c_str(), a.calls,
                a.busy_ms, a.self_ms);
  }
}

}  // namespace tcbench
