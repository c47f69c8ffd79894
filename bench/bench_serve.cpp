// Serving-layer bench — N concurrent StentBoost streams on one shared
// runtime (serve::StreamServer), swept over stream count and load.
//
// Three phases:
//
//   1. fleet sweep     — 1/2/4/8 identical streams at a comfortable
//                        deadline: throughput, per-stream and fleet
//                        p50/p99, deadline-miss rates under weighted-fair
//                        scheduling on the shared pool;
//   2. oversubscription — 8 streams at a tight deadline plus one
//                        infeasible stream: admission must queue/reject
//                        (never crash) while the admitted streams keep
//                        serving their deadlines;
//   3. warm start      — a cold stream retires, publishing its predictor
//                        snapshot; an identical stream submitted afterwards
//                        must be priced from the registry (no probe).  Both
//                        streams learn their predictors from frame 0; their
//                        early-frame CPU prediction errors are printed side
//                        by side (the ledger calibration report).
//
// With --telemetry a fourth phase measures the live ops plane's cost: the
// 4-stream fleet is served twice — once bare, once with the telemetry
// server up and a 1 Hz scraper hitting /metrics + /streams throughout the
// drain — and the per-frame latency delta is recorded as the
// "telemetry_overhead" family (target < 1%; compare_bench.py gates it).
//
// Writes BENCH_serve.json ("serve_fleet" family rows are diffable by
// bench/compare_bench.py).  --smoke skips the structural exit gates
// (sanitized or oversubscribed CI hosts).
//
// Usage: bench_serve [--frames N] [--size S] [--workers W] [--smoke]
//                    [--telemetry]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/stentboost.hpp"
#include "bench_util.hpp"
#include "obs/exporters.hpp"
#include "obs/scoped_timer.hpp"
#include "serve/stream_server.hpp"

using namespace tc;

namespace {

struct Options {
  i32 frames = 48;   // frames per stream
  i32 size = 192;
  i32 workers = 4;   // shared pool threads
  bool smoke = false;
  bool telemetry = false;  // measure scrape-under-load overhead
  std::string out = "BENCH_serve.json";
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
    else if (std::strcmp(argv[i], "--smoke") == 0) opt.smoke = true;
    else if (std::strcmp(argv[i], "--telemetry") == 0) opt.telemetry = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      opt.out = argv[++i];
  }
  opt.frames = std::max(opt.frames, 8);
  return opt;
}

app::StentBoostConfig stream_app(const Options& opt, u64 seed) {
  return app::StentBoostConfig::make(opt.size, opt.size, opt.frames, seed);
}

/// Mean serial frame cost of the workload on this host — the deadline
/// anchor (streams are priced against deadlines derived from it).
f64 calibrate_frame_ms(const Options& opt) {
  app::StentBoostApp probe(stream_app(opt, /*seed=*/7));
  const i32 frames = 6;
  f64 total = 0.0;
  for (i32 t = 0; t < frames; ++t) {
    const graph::FrameRecord record = probe.process_frame(t);
    for (const graph::TaskExecution& exec : record.tasks) {
      if (exec.executed) total += exec.host_ms;
    }
  }
  return total / frames;
}

struct PhaseResult {
  std::string name;
  i32 streams = 0;
  i32 admitted = 0;
  i32 queued = 0;
  i32 rejected = 0;
  f64 wall_ms = 0.0;
  f64 ms_per_frame = 0.0;  ///< fleet mean latency per served frame
  f64 fps = 0.0;           ///< aggregate served frames per wall second
  f64 p50_ms = 0.0;
  f64 p99_ms = 0.0;
  f64 miss_rate = 0.0;
  f64 deadline_ms = 0.0;
  i64 scrapes = 0;  ///< telemetry scrapes issued during the drain
  std::vector<serve::StreamReport> reports;
};

PhaseResult run_fleet(const Options& opt, i32 n_streams, f64 deadline_ms,
                      bool add_infeasible, const char* name,
                      bool with_telemetry = false) {
  serve::ServeConfig sc;
  sc.pool_threads = opt.workers;
  sc.max_concurrent_streams = std::min(4, std::max(1, opt.workers));
  if (with_telemetry) {
    sc.telemetry.enabled = true;
    sc.telemetry.port = 0;  // ephemeral
  }
  serve::StreamServer server(sc);

  for (i32 i = 0; i < n_streams; ++i) {
    serve::StreamConfig stream;
    stream.app = stream_app(opt, /*seed=*/100 + static_cast<u64>(i));
    stream.deadline_ms = deadline_ms;
    stream.frames = opt.frames;
    // Mixed weights: even streams count double, exercising the
    // weighted-fair scheduler's unequal shares.
    stream.weight = (i % 2 == 0) ? 2.0 : 1.0;
    (void)server.submit(std::move(stream));
  }
  if (add_infeasible) {
    // A stream whose deadline no candidate plan can meet: admission must
    // reject it up front rather than let it poison the fleet.
    serve::StreamConfig impossible;
    impossible.app = stream_app(opt, /*seed=*/999);
    impossible.deadline_ms = deadline_ms / 64.0;
    impossible.frames = opt.frames;
    impossible.name = "infeasible";
    (void)server.submit(std::move(impossible));
  }

  // 1 Hz scraper against the live endpoint for the whole drain — the
  // production monitoring pattern whose latency cost the telemetry phase
  // measures.
  std::atomic<bool> stop_scraper{false};
  std::thread scraper;
  i64 scrapes = 0;
  if (with_telemetry && server.telemetry() != nullptr &&
      server.telemetry()->running()) {
    const i32 port = server.telemetry()->port();
    scraper = std::thread([&stop_scraper, &scrapes, port] {
      while (!stop_scraper.load(std::memory_order_acquire)) {
        (void)obs::http_get("127.0.0.1", port, "/metrics");
        (void)obs::http_get("127.0.0.1", port, "/streams");
        ++scrapes;
        for (i32 i = 0; i < 20; ++i) {
          if (stop_scraper.load(std::memory_order_acquire)) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    });
  }

  obs::ScopedTimer timer;
  server.drain();
  const f64 wall = timer.elapsed_ms();
  stop_scraper.store(true, std::memory_order_release);
  if (scraper.joinable()) scraper.join();

  PhaseResult r;
  r.name = name;
  r.scrapes = scrapes;
  r.streams = n_streams + (add_infeasible ? 1 : 0);
  r.wall_ms = wall;
  r.deadline_ms = deadline_ms;
  r.reports = server.reports();
  const serve::FleetReport fleet = server.fleet();
  r.admitted = fleet.admitted;
  r.queued = fleet.queued;
  r.rejected = fleet.rejected;
  r.p50_ms = fleet.p50_ms;
  r.p99_ms = fleet.p99_ms;
  r.miss_rate = fleet.miss_rate;
  if (fleet.frames > 0 && wall > 0.0) {
    f64 latency_sum = 0.0;
    for (const serve::StreamReport& s : r.reports) {
      latency_sum += s.mean_ms * s.frames;
    }
    r.ms_per_frame = latency_sum / static_cast<f64>(fleet.frames);
    r.fps = 1000.0 * static_cast<f64>(fleet.frames) / wall;
  }
  return r;
}

void print_phase(const PhaseResult& r) {
  std::printf(
      "%-16s streams=%d admitted=%d queued=%d rejected=%d  wall %.0f ms  "
      "%.1f fps  p50 %.2f  p99 %.2f  miss %.1f%%\n",
      r.name.c_str(), r.streams, r.admitted, r.queued, r.rejected, r.wall_ms,
      r.fps, r.p50_ms, r.p99_ms, 100.0 * r.miss_rate);
  for (const serve::StreamReport& s : r.reports) {
    if (!s.served) {
      std::printf("    %-12s %s (%s)\n", s.name.c_str(),
                  serve::to_string(s.decision.verdict),
                  s.decision.reason.c_str());
      continue;
    }
    std::printf(
        "    %-12s w=%.0f %s%s p50 %.2f  p99 %.2f / %.2f ms  miss %.1f%%  "
        "degraded %d  repart %d\n",
        s.name.c_str(), s.weight,
        serve::to_string(s.decision.verdict),
        s.warm_started ? " warm" : "", s.p50_ms, s.p99_ms, s.deadline_ms,
        100.0 * s.miss_rate, s.degraded_frames, s.repartitions);
  }
}

struct WarmStartResult {
  f64 cold_early_ape_pct = -1.0;
  f64 warm_early_ape_pct = -1.0;
  bool warm_started = false;
};

/// A cold stream retires and publishes its snapshot; an identical stream
/// is then priced from the registry.  Early-frame CPU APE of both streams.
WarmStartResult run_warm_start(const Options& opt, f64 deadline_ms) {
  serve::ServeConfig sc;
  sc.pool_threads = opt.workers;
  serve::StreamServer server(sc);

  serve::StreamConfig cold;
  cold.app = stream_app(opt, /*seed=*/55);
  cold.deadline_ms = deadline_ms;
  cold.frames = opt.frames;
  cold.name = "cold";
  const i32 cold_id = server.submit(std::move(cold));
  server.drain();

  serve::StreamConfig warm;
  warm.app = stream_app(opt, /*seed=*/55);
  warm.deadline_ms = deadline_ms;
  warm.frames = opt.frames;
  warm.name = "warm";
  const i32 warm_id = server.submit(std::move(warm));
  server.drain();

  WarmStartResult r;
  r.cold_early_ape_pct = server.report(cold_id).early_ape_pct;
  r.warm_early_ape_pct = server.report(warm_id).early_ape_pct;
  r.warm_started = server.report(warm_id).warm_started;
  return r;
}

std::string to_json(const Options& opt, const std::vector<PhaseResult>& sweep,
                    const PhaseResult& oversub, const WarmStartResult& warm,
                    const PhaseResult* tel_base, const PhaseResult* tel_live) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"frames\": " << opt.frames << ",\n";
  os << "  \"size\": " << opt.size << ",\n";
  os << "  \"workers\": " << opt.workers << ",\n";
  os << "  \"host_cores\": " << plat::affinity_cores() << ",\n";
  os << "  \"serve_fleet\": [\n";
  for (usize i = 0; i < sweep.size(); ++i) {
    const PhaseResult& r = sweep[i];
    os << "    {\"name\": \"" << r.name << "\", \"streams\": " << r.streams
       << ", \"admitted\": " << r.admitted << ", \"queued\": " << r.queued
       << ", \"rejected\": " << r.rejected << ", \"wall_ms\": " << r.wall_ms
       << ", \"ms_per_frame\": " << r.ms_per_frame << ", \"fps\": " << r.fps
       << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
       << ", \"miss_rate\": " << r.miss_rate << ", \"deadline_ms\": "
       << r.deadline_ms << "}" << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"oversubscribed\": {\"streams\": " << oversub.streams
     << ", \"admitted\": " << oversub.admitted << ", \"queued\": "
     << oversub.queued << ", \"rejected\": " << oversub.rejected
     << ", \"p99_ms\": " << oversub.p99_ms << ", \"miss_rate\": "
     << oversub.miss_rate << ", \"deadline_ms\": " << oversub.deadline_ms
     << "},\n";
  os << "  \"warm_start\": {\"cold_early_ape_pct\": "
     << warm.cold_early_ape_pct << ", \"warm_early_ape_pct\": "
     << warm.warm_early_ape_pct << ", \"warm_started\": "
     << (warm.warm_started ? "true" : "false") << "}";
  if (tel_base != nullptr && tel_live != nullptr) {
    const f64 overhead_pct =
        tel_base->ms_per_frame > 0.0
            ? (tel_live->ms_per_frame - tel_base->ms_per_frame) /
                  tel_base->ms_per_frame * 100.0
            : 0.0;
    os << ",\n  \"telemetry_overhead\": [\n";
    os << "    {\"name\": \"scrape_1hz\", \"ms_per_frame\": "
       << tel_live->ms_per_frame << ", \"baseline_ms_per_frame\": "
       << tel_base->ms_per_frame << ", \"overhead_pct\": " << overhead_pct
       << ", \"scrapes\": " << tel_live->scrapes << ", \"fps\": "
       << tel_live->fps << "}\n";
    os << "  ]\n";
  } else {
    os << "\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  bench::print_header(
      "Multi-stream serving — admission, fair scheduling, warm start",
      "Albers et al., IPDPS 2009 — one runtime serving N stream groups");
  std::printf("frames/stream=%d size=%dx%d pool=%d\n\n", opt.frames, opt.size,
              opt.size, opt.workers);

  const f64 frame_ms = calibrate_frame_ms(opt);
  // Comfortable deadline: a lone serial stream fits with headroom.  Tight
  // deadline: each stream demands most of a core, so eight of them
  // oversubscribe any small pool.
  const f64 comfortable_ms = frame_ms * 1.8;
  const f64 tight_ms = frame_ms * 1.1;
  std::printf("calibration: %.2f ms/frame serial -> deadlines %.2f ms "
              "(sweep) / %.2f ms (oversubscribed)\n\n",
              frame_ms, comfortable_ms, tight_ms);

  std::vector<PhaseResult> sweep;
  for (const i32 n : {1, 2, 4, 8}) {
    std::string name = std::to_string(n);
    name.insert(0, "streams_");
    sweep.push_back(run_fleet(opt, n, comfortable_ms, /*add_infeasible=*/false,
                              name.c_str()));
    print_phase(sweep.back());
  }
  std::printf("\n");

  const PhaseResult oversub = run_fleet(opt, 8, tight_ms,
                                        /*add_infeasible=*/true,
                                        "oversubscribed_8");
  print_phase(oversub);
  std::printf("\n");

  const WarmStartResult warm = run_warm_start(opt, comfortable_ms);
  std::printf("warm start: cold early-frame CPU APE %.2f%%, warm %.2f%% "
              "(warm_started=%s)\n\n",
              warm.cold_early_ape_pct, warm.warm_early_ape_pct,
              warm.warm_started ? "yes" : "no");

  PhaseResult tel_base;
  PhaseResult tel_live;
  if (opt.telemetry) {
    // Same fleet twice: bare, then with the ops endpoint up and a 1 Hz
    // scraper running for the whole drain.  The per-frame latency delta is
    // the cost of being observable.
    tel_base = run_fleet(opt, 4, comfortable_ms, /*add_infeasible=*/false,
                         "telemetry_off");
    tel_live = run_fleet(opt, 4, comfortable_ms, /*add_infeasible=*/false,
                         "scrape_1hz", /*with_telemetry=*/true);
    const f64 overhead_pct =
        tel_base.ms_per_frame > 0.0
            ? (tel_live.ms_per_frame - tel_base.ms_per_frame) /
                  tel_base.ms_per_frame * 100.0
            : 0.0;
    std::printf("telemetry: %.3f ms/frame bare, %.3f ms/frame with 1 Hz "
                "scraper (%lld scrapes) -> overhead %+.2f%%\n\n",
                tel_base.ms_per_frame, tel_live.ms_per_frame,
                static_cast<long long>(tel_live.scrapes), overhead_pct);
  }

  const std::string json =
      to_json(opt, sweep, oversub, warm, opt.telemetry ? &tel_base : nullptr,
              opt.telemetry ? &tel_live : nullptr);
  if (obs::write_text_file(opt.out, json)) {
    std::printf("wrote %s\n", opt.out.c_str());
  }

  // --- structural gates (skipped in smoke mode) ----------------------------
  bool ok = true;
  const PhaseResult& four = sweep[2];
  if (four.admitted + four.queued < 4 || four.admitted < 1) {
    std::printf("FAIL: 4-stream phase did not serve 4 streams "
                "(admitted %d, queued %d)\n", four.admitted, four.queued);
    ok = false;
  }
  if (oversub.rejected < 1) {
    std::printf("FAIL: infeasible stream was not rejected\n");
    ok = false;
  }
  if (!warm.warm_started) {
    std::printf("FAIL: second same-class stream did not warm-start\n");
    ok = false;
  }
  if (opt.smoke) {
    std::printf("(smoke mode; gates reported but not enforced)\n");
    return 0;
  }
  return ok ? 0 : 1;
}
