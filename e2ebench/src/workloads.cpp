#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <utility>

#include "host.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry_server.hpp"
#include "serve/stream_server.hpp"

namespace tcbench {

using namespace tc;

std::uint64_t image_digest(const img::ImageU16& image) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 1099511628211ull;
    h ^= h >> 29;
  };
  mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(image.width()))
       << 32) |
      static_cast<std::uint32_t>(image.height()));
  const auto* bytes = reinterpret_cast<const unsigned char*>(image.data());
  const std::size_t n = image.size() * sizeof(u16);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, 8);
    mix(word);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, bytes + i, n - i);
  mix(tail);
  return h;
}

StreamRun drive_executor(exec::Executor& ex, int frames, double period_ms,
                         SpanBuffer* spans) {
  StreamRun run;
  run.steps.resize(static_cast<std::size_t>(frames));
  run.rss_start_mb = current_rss_mb();
  const double cpu0 = process_cpu_ms();
  run.loop = run_open_loop(frames, period_ms, [&](int t) {
    SpanBuffer* sb = t % 2 == 0 ? spans : nullptr;
    StepRecord& r = run.steps[static_cast<std::size_t>(t)];
    {
      const ScopedSpan span(sb, "exec.step", t);
      const Clock::time_point a = Clock::now();
      r.frame = ex.step(t);
      r.exec_step_ms = ms_between(a, Clock::now());
    }
    const ScopedSpan span(sb, "harness.digest", t);
    const img::ImageU16& out = ex.app().last_output();
    r.digest = image_digest(out);
    r.out_w = out.width();
    r.out_h = out.height();
  });
  run.cpu_ms = process_cpu_ms() - cpu0;
  run.wall_ms = run.loop.frames.empty() ? 0.0 : run.loop.frames.back().end_ms;
  run.rss_end_mb = current_rss_mb();
  run.peak_rss_mb = peak_rss_mb();
  return run;
}

namespace {

constexpr int kSetupRepeats = 21;
/// Fleet set-ups timed beside the rounds' own (see run_fleet_workload).
constexpr int kFleetExtraSetups = 6;
/// A fleet round that would end later than this is not started: the run
/// must exit within 180 s.
constexpr double kFleetTimeCapS = 150.0;
/// Replayed fleet-stream frames compared with the serial reference.
constexpr int kFleetReferenceFrames = 64;
constexpr std::size_t kSpanCapacity = 1 << 15;

/// Late share, e2e percentiles and the other user-visible numbers shared by
/// both workload kinds.
void report_latency(Report& report, const Samples& latency, long late,
                    long attempted) {
  for (const auto& [name, q] : {std::pair{"e2e_p50_ms", 0.50},
                                std::pair{"e2e_p95_ms", 0.95}}) {
    const std::optional<double> v = latency.percentile(q);
    if (v.has_value()) {
      report.set(name, *v, "ms", latency.count());
    } else {
      std::printf("refused: %s needs %zu samples beyond it, have %zu of %zu\n",
                  name, kMinBeyond, latency.beyond(q), latency.count());
    }
  }
  std::printf("latency quantiles (ms):");
  for (const double q : {0.05, 0.10, 0.25, 0.50, 0.75, 0.90}) {
    const std::optional<double> v = latency.percentile(q);
    std::printf(" p%02.0f %s", q * 100.0,
                v.has_value() ? std::to_string(*v).c_str() : "-");
  }
  std::printf(" (n=%zu)\n", latency.count());
  report.set("late_pct", 100.0 * static_cast<double>(late) /
                             static_cast<double>(std::max(1L, attempted)),
             "%", static_cast<std::size_t>(attempted));
}

/// Compare the first frames with a serial StentBoostApp of the same seed
/// (striped and serial output are bit-identical by invariant) and check
/// every frame's output shape.  Returns which frames failed.
std::vector<bool> check_stream_output(const app::StentBoostConfig& cfg,
                         const std::vector<StepRecord>& steps, int prefix,
                         Samples& serial_ms) {
  std::vector<bool> bad(steps.size(), false);
  const u32 reg_bit = 1u << app::kSwReg;
  for (std::size_t t = 0; t < steps.size(); ++t) {
    const StepRecord& r = steps[t];
    const bool displayed = (r.frame.scenario & reg_bit) != 0;
    if (r.frame.frame != static_cast<i32>(t) ||
        (displayed && (r.out_w != cfg.zoom.output_width ||
                       r.out_h != cfg.zoom.output_height))) {
      bad[t] = true;
    }
  }
  app::StentBoostApp reference(cfg);  // no pool: serial
  const int n = std::min<int>(prefix, static_cast<int>(steps.size()));
  for (int t = 0; t < n; ++t) {
    const img::ImageU16 frame = reference.sequence().render(t);
    const Clock::time_point a = Clock::now();
    const graph::FrameRecord record = reference.process_image(t, frame);
    serial_ms.add(ms_between(a, Clock::now()));
    const StepRecord& r = steps[static_cast<std::size_t>(t)];
    if (record.scenario != r.frame.scenario ||
        image_digest(reference.last_output()) != r.digest) {
      bad[static_cast<std::size_t>(t)] = true;
    }
  }
  std::printf("output check: %d frames against the serial reference, %zu "
              "frames by shape, %ld failed\n",
              n, steps.size(), static_cast<long>(std::count(bad.begin(), bad.end(), true)));
  return bad;
}

void write_trace(const SpanBuffer& spans, const std::string& path) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("trace: cannot write %s\n", path.c_str());
    return;
  }
  const std::string json = spans.to_chrome_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("trace: %zu spans (%zu dropped) written to %s\n", spans.size(),
              spans.dropped(), path.c_str());
}

/// Serve and endpoint metrics have no meaning for a single stream; they are
/// reported as 0 with a note so every per-layer name is present.
void mark_serve_not_applicable(Report& report) {
  for (const char* name : {"serve.submit_ms", "serve.compute_p99_ms",
                           "serve.deadline_miss_pct", "serve.task_ms_per_frame",
                           "obs.scrape_ms.p50", "obs.metrics_bytes"}) {
    const char* unit = "";
    for (const MetricName& m : kPerLayer) {
      if (std::strcmp(m.name, name) == 0) unit = m.unit;
    }
    report.set(name, 0.0, unit, 0,
               "n/a: single stream, no serving layer or endpoint");
  }
}

}  // namespace

RunResult run_stream_workload(const StreamSpec& spec, const Options& opt) {
  RunResult res;
  const app::StentBoostConfig cfg = app::StentBoostConfig::make(
      spec.size, spec.size, spec.sequence_frames, opt.seed);
  exec::ExecutorConfig ec;
  ec.worker_threads = kPoolThreads;
  ec.deadline_ms = spec.deadline_ms;
  ec.policy = exec::DeadlinePolicy::Run;
  ec.ledger.enabled = true;

  const int frames = spec.offered_frames;
  std::printf("workload %s: %d² natural dynamics, sequence %d frames, %d "
              "frames offered every %.1f ms (open loop), deadline %.1f ms, "
              "policy run, latency limit %.1f ms, pool %d\n",
              spec.name, spec.size, spec.sequence_frames, frames,
              spec.period_ms, spec.deadline_ms, spec.latency_limit_ms,
              kPoolThreads);

  // Set-up: constructor to first arrival, repeated; the last one runs.
  std::vector<double> setup_s;
  std::unique_ptr<exec::Executor> ex;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ex.reset();
    const Clock::time_point a = Clock::now();
    ex = std::make_unique<exec::Executor>(cfg, ec);
    setup_s.push_back(ms_between(a, Clock::now()) / 1000.0);
  }

  std::unique_ptr<SpanBuffer> spans;
  if (opt.trace) spans = std::make_unique<SpanBuffer>(kSpanCapacity);
  const StreamRun run = drive_executor(*ex, frames, spec.period_ms, spans.get());

  Samples serial_ms;
  const std::vector<bool> bad = check_stream_output(
      cfg, run.steps, spec.reference_frames, serial_ms);
  res.attempted = frames;

  Samples latency;
  long late = 0;
  for (std::size_t t = 0; t < run.loop.frames.size(); ++t) {
    const double ms = run.loop.frames[t].latency_ms();
    latency.add(ms);
    // Failed frames count as late whatever their latency.
    if (bad[t]) ++res.failed;
    if (bad[t] || ms > spec.latency_limit_ms) ++late;
  }
  Report& rep = res.report;
  report_latency(rep, latency, late, res.attempted);
  rep.set("throughput_fps",
          1000.0 * static_cast<double>(run.steps.size()) / run.wall_ms, "1/s",
          run.steps.size());
  rep.set("cpu_ms_per_frame", run.cpu_ms / frames, "ms",
          static_cast<std::size_t>(frames));
  rep.set("setup_s", median(setup_s), "s", setup_s.size(),
          "median of Executor constructions");
  rep.set("peak_rss_mb", run.peak_rss_mb, "MiB", 1);

  if (opt.trace) {
    measure_stream_layers(*ex, cfg, run, serial_ms, spans.get(), rep,
                          res.failed);
    rep.set("obs.rss_growth_mb", run.rss_end_mb - run.rss_start_mb, "MiB", 1,
            "RSS after the run minus RSS after set-up");
    mark_serve_not_applicable(rep);
    rep.set("harness.arrival_lag_ms.max", run.loop.max_generator_lag_ms, "ms",
            run.loop.frames.size());
    rep.set("harness.spans_dropped", static_cast<double>(spans->dropped()),
            "count", spans->size());
    print_span_summary(*spans);
    write_trace(*spans, opt.trace_out);
  }
  res.correct = res.failed == 0;
  return res;
}

// --- fleet ------------------------------------------------------------------

namespace {

struct Scrapes {
  std::vector<double> ms;
  std::vector<double> bytes;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> times;
  long failures = 0;
};

/// Scrape /metrics every period over one connection at a time until `stop`.
void scrape_loop(int port, int period_ms, const std::atomic<bool>& stop,
                 Scrapes& out) {
  while (!stop.load(std::memory_order_acquire)) {
    const Clock::time_point a = Clock::now();
    const obs::HttpResult r = obs::http_get("127.0.0.1", port, "/metrics");
    const Clock::time_point b = Clock::now();
    if (r.status == 200) {
      out.ms.push_back(ms_between(a, b));
      out.bytes.push_back(static_cast<double>(r.body.size()));
      out.times.emplace_back(a, b);
    } else {
      ++out.failures;
    }
    const Clock::time_point next = a + std::chrono::milliseconds(period_ms);
    while (!stop.load(std::memory_order_acquire) && Clock::now() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

/// Display times of every stream's frames as the harness sees them, in ms
/// since drain() was called: a watcher polls StreamServer::fleet_status()
/// and stamps each frame when its stream's frames_done count first covers
/// it.  Frames first seen together are spread evenly since the last poll.
struct DisplayWatch {
  std::vector<std::vector<double>> display_ms;  ///< per stream id
  long polls = 0;
  long crowded_polls = 0;  ///< polls that saw two or more new frames of a stream
  Samples poll_us;         ///< time inside fleet_status()
};

/// Pause between polls, drawn uniformly from this range (mean 1 ms).  With
/// a fixed pause every stamp falls on a lattice of the poll period, display
/// intervals come out as whole multiples of it, and their median moves one
/// period at a time; a random pause spreads the stamps evenly.
constexpr int kDisplayPollMinUs = 500;
constexpr int kDisplayPollMaxUs = 1500;

/// Poll until `stop`, then once more, so every frame drain() served is seen.
void watch_displays(const serve::StreamServer& server, Clock::time_point t0,
                    const std::atomic<bool>& stop, DisplayWatch& out) {
  std::minstd_rand rng(12345);
  std::uniform_int_distribution<int> pause_us(kDisplayPollMinUs,
                                              kDisplayPollMaxUs);
  double prev_ms = 0.0;
  for (;;) {
    const bool last = stop.load(std::memory_order_acquire);
    const Clock::time_point a = Clock::now();
    const serve::FleetStatus fs = server.fleet_status();
    const Clock::time_point b = Clock::now();
    const double now_ms = ms_between(t0, b);
    ++out.polls;
    out.poll_us.add(ms_between(a, b) * 1000.0);
    for (const serve::StreamStatus& st : fs.streams) {
      const auto id = static_cast<std::size_t>(st.id);
      if (out.display_ms.size() <= id) out.display_ms.resize(id + 1);
      std::vector<double>& shown = out.display_ms[id];
      const int fresh = st.frames_done - static_cast<int>(shown.size());
      if (fresh > 1) ++out.crowded_polls;
      for (int k = 1; k <= fresh; ++k) {
        shown.push_back(prev_ms + (now_ms - prev_ms) * k / fresh);
      }
    }
    prev_ms = now_ms;
    if (last) return;
    std::this_thread::sleep_for(std::chrono::microseconds(pause_us(rng)));
  }
}

/// Stream `i` of round `round`.  Every round plays new sequences, so a run
/// averages its content over many streams, not just four.
serve::StreamConfig fleet_stream(const FleetSpec& spec, u64 seed, int round,
                                 int i) {
  serve::StreamConfig s;
  const u64 stream_seed = (seed << 16) +
                          static_cast<u64>(round) * spec.weights.size() +
                          static_cast<u64>(i);
  s.app = app::StentBoostConfig::make(spec.size, spec.size,
                                      spec.sequence_frames, stream_seed);
  s.deadline_ms = spec.deadline_ms;
  s.weight = spec.weights[static_cast<std::size_t>(i)];
  s.frames = spec.sequence_frames;
  s.policy = exec::DeadlinePolicy::Run;
  char name[16];
  std::snprintf(name, sizeof(name), "s%d", i);
  s.name = name;
  return s;
}

struct RoundResult {
  double setup_s = 0.0;
  double drain_ms = 0.0;
  double cpu_ms = 0.0;
  double rss_growth_mb = 0.0;
  long offered = 0;
  long served = 0;
  long failed = 0;
  Samples latency;  ///< display interval per (stream, frame), harness-timed
  DisplayWatch watch;
  std::vector<double> submit_ms;
  Scrapes scrapes;
  serve::FleetReport fleet;
  std::vector<serve::StreamReport> streams;
};

/// Construct a StreamServer and submit the round's four streams: the set-up
/// that setup_s times.
std::unique_ptr<serve::StreamServer> set_up_fleet(const FleetSpec& spec,
                                                  u64 seed, int round,
                                                  SpanBuffer* spans,
                                                  std::int32_t parent,
                                                  RoundResult& rr) {
  // Each fleet starts from empty process-global obs state.
  obs::global().clear();
  serve::ServeConfig sc;
  sc.pool_threads = kPoolThreads;
  sc.max_concurrent_streams = spec.slots;
  sc.telemetry.enabled = true;
  sc.telemetry.port = 0;

  const Clock::time_point a = Clock::now();
  std::unique_ptr<serve::StreamServer> server;
  {
    const ScopedSpan span(spans, "serve.construct", round, parent);
    server = std::make_unique<serve::StreamServer>(sc);
  }
  for (int i = 0; i < static_cast<int>(spec.weights.size()); ++i) {
    const ScopedSpan span(spans, "serve.submit", round, parent);
    const Clock::time_point b = Clock::now();
    (void)server->submit(fleet_stream(spec, seed, round, i));
    rr.submit_ms.push_back(ms_between(b, Clock::now()));
  }
  rr.setup_s = ms_between(a, Clock::now()) / 1000.0;
  return server;
}

RoundResult fleet_round(const FleetSpec& spec, u64 seed, int round,
                        SpanBuffer* spans) {
  RoundResult rr;
  const ScopedSpan round_span(spans, "serve.round", round);
  const std::unique_ptr<serve::StreamServer> server =
      set_up_fleet(spec, seed, round, spans, round_span.id(), rr);
  const int streams = static_cast<int>(spec.weights.size());
  const double rss0 = current_rss_mb();

  std::atomic<bool> stop{false};
  std::thread scrape_thread;
  if (server->telemetry() != nullptr && server->telemetry()->running()) {
    const int port = server->telemetry()->port();
    scrape_thread = std::thread([&, port] {
      scrape_loop(port, spec.scrape_period_ms, stop, rr.scrapes);
    });
  } else {
    ++rr.scrapes.failures;
  }

  const double cpu0 = process_cpu_ms();
  const Clock::time_point d0 = Clock::now();
  std::atomic<bool> drained{false};
  std::thread watch_thread(
      [&] { watch_displays(*server, d0, drained, rr.watch); });
  {
    const ScopedSpan span(spans, "serve.drain", round, round_span.id());
    server->drain();
  }
  rr.drain_ms = ms_between(d0, Clock::now());
  drained.store(true, std::memory_order_release);
  watch_thread.join();
  rr.cpu_ms = process_cpu_ms() - cpu0;
  stop.store(true, std::memory_order_release);
  if (scrape_thread.joinable()) scrape_thread.join();
  rr.rss_growth_mb = current_rss_mb() - rss0;

  if (spans != nullptr) {
    // Scrapes ran on their own thread, beside drain(): root spans, so they
    // do not count against the round's self time.
    for (const auto& [from, to] : rr.scrapes.times) {
      spans->record("obs.scrape", from, to, round);
    }
  }

  rr.fleet = server->fleet();
  rr.streams = server->reports();
  rr.offered = static_cast<long>(streams) * spec.sequence_frames;
  for (const serve::StreamReport& s : rr.streams) {
    const long frames = s.served ? s.frames : 0;
    rr.served += frames;
    const bool ok = frames == spec.sequence_frames &&
                    s.decision.verdict == serve::AdmissionVerdict::Admit;
    if (!ok) rr.failed += std::max(1L, spec.sequence_frames - frames);
  }
  // Closed loop: a stream's next frame is due the moment its previous one
  // is displayed (the first when drain() starts), so each frame's latency
  // is its display interval, slot waits included.
  for (const std::vector<double>& shown : rr.watch.display_ms) {
    double prev = 0.0;
    for (const double t : shown) {
      rr.latency.add(t - prev);
      prev = t;
    }
  }
  return rr;
}

void print_round(const char* label, int round, const RoundResult& rr) {
  std::printf("%s %d: set-up %.3f s, drain %.0f ms, %.1f fps, %.2f ms CPU per "
              "frame, display interval p50 %.2f ms\n",
              label, round, rr.setup_s, rr.drain_ms,
              1000.0 * static_cast<double>(rr.served) / rr.drain_ms,
              rr.cpu_ms / static_cast<double>(rr.offered),
              rr.latency.percentile(0.5).value_or(0.0));
}

}  // namespace

RunResult run_fleet_workload(const FleetSpec& spec, const Options& opt) {
  RunResult res;
  obs::set_enabled(true);
  const int streams = static_cast<int>(spec.weights.size());
  std::printf("workload %s: a warm-up round, then %d timed rounds of %d "
              "streams of %d², weights 2:1:2:1, "
              "%d frames each (whole sequence), closed loop (drain), deadline "
              "%.1f ms, policy run, display-interval limit %.1f ms, pool %d, "
              "%d slots, obs on, /metrics scraped every %d ms\n",
              spec.name, spec.rounds, streams, spec.size, spec.sequence_frames,
              spec.deadline_ms, spec.latency_limit_ms, kPoolThreads,
              spec.slots, spec.scrape_period_ms);

  std::unique_ptr<SpanBuffer> spans;
  if (opt.trace) spans = std::make_unique<SpanBuffer>(kSpanCapacity);

  // Set-ups that are timed and torn down unserved, so setup_s is a median
  // of more than the rounds' own set-ups.  They use the rounds' streams.
  std::vector<double> setup_s;
  for (int i = 0; i < kFleetExtraSetups; ++i) {
    RoundResult scratch;
    (void)set_up_fleet(spec, opt.seed, i % spec.rounds, nullptr, -1, scratch);
    setup_s.push_back(scratch.setup_s);
  }

  // Warm-up: one untimed round on sequences of its own, so code, heap and
  // clock speed have settled before the first timed round.
  print_round("warm-up round", spec.rounds,
              fleet_round(spec, opt.seed, spec.rounds, nullptr));

  std::vector<RoundResult> rounds;
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < spec.rounds; ++r) {
    // Every round is served to the end; a round that would not finish in
    // time is not started, and its frames count as failed.
    const double elapsed_s = ms_between(start, Clock::now()) / 1000.0;
    if (r > 0 && elapsed_s + elapsed_s / r > kFleetTimeCapS) {
      const long lost = static_cast<long>(spec.rounds - r) * streams *
                        spec.sequence_frames;
      std::printf("out of time: %d of %d rounds run after %.1f s; %ld frames "
                  "not served count as failed\n",
                  r, spec.rounds, elapsed_s, lost);
      res.attempted += lost;
      res.failed += lost;
      break;
    }
    // Each round is a fresh fleet: hand the heap that earlier fleets freed
    // back to the system, so peak RSS does not depend on how fragmented
    // the allocator's arenas happened to leave it.
    release_free_heap();
    // Traced runs trace every other round, so the tracing cost shows.
    SpanBuffer* sb = r % 2 == 0 ? spans.get() : nullptr;
    rounds.push_back(fleet_round(spec, opt.seed, r, sb));
    print_round("round", r, rounds.back());
  }

  Samples latency;
  Samples traced_latency;
  Samples untraced_latency;
  long late = res.failed;
  double drain_ms = 0.0;
  double cpu_ms = 0.0;
  long served = 0;
  long polls = 0;
  long crowded_polls = 0;
  Samples poll_us;
  double rss_growth = 0.0;
  std::vector<double> p99;
  long misses = 0;
  double task_ms = 0.0;
  long admitted = 0;
  long queued = 0;
  long rejected = 0;
  Samples submit_ms;
  Samples scrape_ms;
  std::vector<double> scrape_bytes;
  long scrape_failures = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const RoundResult& rr = rounds[r];
    for (double v : rr.submit_ms) submit_ms.add(v);
    for (double v : rr.scrapes.ms) scrape_ms.add(v);
    scrape_bytes.insert(scrape_bytes.end(), rr.scrapes.bytes.begin(),
                        rr.scrapes.bytes.end());
    scrape_failures += rr.scrapes.failures;
    res.attempted += rr.offered;
    res.failed += rr.failed;
    late += rr.failed;
    served += rr.served;
    setup_s.push_back(rr.setup_s);
    drain_ms += rr.drain_ms;
    cpu_ms += rr.cpu_ms;
    rss_growth = std::max(rss_growth, rr.rss_growth_mb);
    p99.push_back(rr.fleet.p99_ms);
    misses += rr.fleet.deadline_misses;
    admitted += rr.fleet.admitted;
    queued += rr.fleet.queued;
    rejected += rr.fleet.rejected;
    for (const serve::StreamReport& s : rr.streams) task_ms += s.mean_ms * s.frames;
    polls += rr.watch.polls;
    crowded_polls += rr.watch.crowded_polls;
    for (double v : rr.watch.poll_us.values()) poll_us.add(v);
    for (double v : rr.latency.values()) {
      latency.add(v);
      (r % 2 == 0 ? traced_latency : untraced_latency).add(v);
      if (v > spec.latency_limit_ms) ++late;
    }
  }
  const double peak = peak_rss_mb();
  std::printf("rounds: %zu, frames served %ld of %ld; admitted %ld, queued "
              "%ld, rejected %ld; scrapes %zu (%ld failed)\n",
              rounds.size(), served, res.attempted, admitted, queued, rejected,
              scrape_ms.count(), scrape_failures);
  const std::optional<double> poll_p50 = poll_us.percentile(0.5);
  std::printf("display watch: %ld polls of fleet_status(), p50 %.1f us each; "
              "%ld polls saw two or more new frames of one stream\n",
              polls, poll_p50.value_or(0.0), crowded_polls);
  std::printf("output check: every stream admitted and served all %d frames "
              "in every round: %s\n",
              spec.sequence_frames, res.failed == 0 ? "yes" : "NO");

  Report& rep = res.report;
  report_latency(rep, latency, late, res.attempted);
  rep.set("throughput_fps", 1000.0 * static_cast<double>(served) / drain_ms,
          "1/s", static_cast<std::size_t>(served));
  rep.set("cpu_ms_per_frame", cpu_ms / static_cast<double>(res.attempted),
          "ms", static_cast<std::size_t>(res.attempted));
  rep.set("setup_s", median(setup_s), "s", setup_s.size(),
          "median: StreamServer + 4 submits, extra set-ups and rounds");
  rep.set("peak_rss_mb", peak, "MiB", 1);

  if (opt.trace) {
    // Layers the fleet hides inside drain(): stream 0 alone through
    // Executor::step, configured as the server configures its sessions.
    const serve::StreamConfig s0 = fleet_stream(spec, opt.seed, 0, 0);
    plat::ThreadPool pool(kPoolThreads);
    exec::ExecutorConfig ec;
    ec.shared_pool = &pool;
    ec.deadline_ms = s0.deadline_ms;
    ec.policy = s0.policy;
    ec.max_stripes_per_task = s0.max_stripes_per_task;
    ec.warmup_frames = s0.warmup_frames;
    ec.ledger.enabled = true;
    ec.ledger.stream_id = 0;
    ec.ledger.export_metrics = false;
    ec.ledger.trace_counters = false;
    exec::Executor ex(s0.app, ec);
    double weights = 0.0;
    for (double w : spec.weights) weights += w;
    ex.set_pool_share(std::max(
        1, static_cast<int>(std::floor(kPoolThreads * s0.weight / weights))));
    std::printf("stream replay: s0 alone through Executor::step, closed loop, "
                "pool share %d\n",
                ex.effective_threads());
    const StreamRun run = drive_executor(ex, spec.sequence_frames, 0.0,
                                         spans.get());
    Samples serial_ms;
    const std::vector<bool> bad =
        check_stream_output(s0.app, run.steps, kFleetReferenceFrames, serial_ms);
    res.attempted += static_cast<long>(bad.size());
    res.failed += std::count(bad.begin(), bad.end(), true);
    measure_stream_layers(ex, s0.app, run, serial_ms, spans.get(), rep,
                          res.failed);

    rep.set("serve.submit_ms", submit_ms.mean(), "ms", submit_ms.count(),
            "mean; includes the cold admission probe");
    rep.set("serve.compute_p99_ms", median(p99), "ms", p99.size(),
            "server-reported p99, median over rounds");
    rep.set("serve.deadline_miss_pct",
            100.0 * static_cast<double>(misses) / static_cast<double>(served),
            "%", static_cast<std::size_t>(served));
    rep.set("serve.task_ms_per_frame", task_ms / static_cast<double>(served),
            "ms", static_cast<std::size_t>(served));
    std::printf("  serve.admitted %ld, serve.queued %ld, serve.rejected %ld "
                "(over %zu rounds)\n",
                admitted, queued, rejected, rounds.size());
    set_percentile(rep, "obs.scrape_ms.p50", scrape_ms, 0.5, "ms");
    rep.set("obs.metrics_bytes", median(scrape_bytes), "bytes",
            scrape_bytes.size(), "median /metrics body");
    rep.set("obs.rss_growth_mb", rss_growth, "MiB", rounds.size(),
            "RSS after drain minus after set-up, worst round");
    const std::optional<double> traced = traced_latency.percentile(0.5);
    const std::optional<double> untraced = untraced_latency.percentile(0.5);
    rep.set("harness.trace_overhead_ms",
            traced && untraced ? *traced - *untraced : 0.0, "ms",
            traced_latency.count(),
            "p50 frame latency, traced rounds minus untraced rounds");
    rep.set("harness.arrival_lag_ms.max", 0.0, "ms", 0,
            "n/a: closed loop, no arrival clock");
    rep.set("harness.spans_dropped", static_cast<double>(spans->dropped()),
            "count", spans->size());
    print_span_summary(*spans);
    write_trace(*spans, opt.trace_out);
  }
  obs::set_enabled(false);
  res.correct = res.failed == 0 && scrape_failures == 0;
  return res;
}

}  // namespace tcbench
