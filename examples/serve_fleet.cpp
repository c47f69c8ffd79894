// Multi-stream serving quickstart — one shared runtime serving a small
// fleet of fluoroscopy streams with prediction-driven admission control,
// weighted-fair scheduling, and warm admission from a predictor registry.
//
// Four streams are submitted against a single worker pool:
//
//   * "or_1"  — interventional suite, tight deadline, double weight;
//   * "or_2"  — same class as or_1 (it shares the class key, but in this
//               single batch nothing has been published yet, so both are
//               priced by a cold probe);
//   * "review" — offline review stream, relaxed deadline, half weight;
//   * "kiosk" — an absurd 0.5 ms deadline no plan can meet: the admission
//               controller must reject it up front.
//
// After drain(), a fifth stream of or_1's class is submitted: it finds the
// retired streams' published predictor snapshot in the registry and is
// priced from it, skipping the cold-start probe.
//
// Outputs: serve_fleet_metrics.prom (fleet gauges + per-stream SLOs).
//
// Live telemetry: `--telemetry-port N` starts the in-process HTTP ops
// endpoint (obs/telemetry_server) on port N (0 = ephemeral; the bound port
// is printed), and `--linger-ms M` keeps the process alive that long after
// the fleet finishes so scrapers (curl, triplec_top, CI smoke) can read
// /metrics, /streams, /ledger, /flight and /trace against a live process.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/exporters.hpp"
#include "obs/obs.hpp"
#include "serve/stream_server.hpp"

using namespace tc;

namespace {

serve::StreamConfig make_stream(const char* name, i32 size, f64 deadline_ms,
                                f64 weight, u64 seed) {
  serve::StreamConfig stream;
  stream.app = app::StentBoostConfig::make(size, size, /*frames=*/48, seed);
  stream.name = name;
  stream.deadline_ms = deadline_ms;
  stream.weight = weight;
  stream.frames = 48;
  return stream;
}

void print_stream(const serve::StreamReport& s) {
  if (!s.served) {
    std::printf("  %-8s %-7s %s\n", s.name.c_str(),
                serve::to_string(s.decision.verdict),
                s.decision.reason.c_str());
    return;
  }
  std::printf("  %-8s %-7s w=%.1f%s  frames=%d  p50 %6.2f  p99 %6.2f / "
              "%.2f ms  miss %4.1f%%  degraded=%d  early APE %.1f%%\n",
              s.name.c_str(), serve::to_string(s.decision.verdict), s.weight,
              s.warm_started ? " (warm)" : "", s.frames, s.p50_ms, s.p99_ms,
              s.deadline_ms, 100.0 * s.miss_rate, s.degraded_frames,
              s.early_ape_pct);
}

}  // namespace

int main(int argc, char** argv) {
  obs::set_enabled(true);

  i32 telemetry_port = -1;  // < 0 = telemetry off
  i32 linger_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry-port") == 0 && i + 1 < argc) {
      telemetry_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--linger-ms") == 0 && i + 1 < argc) {
      linger_ms = std::atoi(argv[++i]);
    } else {
      std::printf("usage: serve_fleet [--telemetry-port N] [--linger-ms M]\n");
      return 2;
    }
  }

  // Calibrate a realistic deadline from a two-frame serial probe.
  f64 frame_ms = 0.0;
  {
    app::StentBoostApp probe(
        app::StentBoostConfig::make(192, 192, /*frames=*/4, /*seed=*/3));
    for (i32 t = 0; t < 4; ++t) {
      for (const graph::TaskExecution& exec : probe.process_frame(t).tasks) {
        if (exec.executed) frame_ms += exec.host_ms;
      }
    }
    frame_ms /= 4.0;
  }
  const f64 tight = frame_ms * 1.4;
  const f64 relaxed = frame_ms * 2.5;

  serve::ServeConfig sc;
  sc.pool_threads = 4;
  sc.max_concurrent_streams = 4;
  if (telemetry_port >= 0) {
    sc.telemetry.enabled = true;
    sc.telemetry.port = telemetry_port;
  }
  serve::StreamServer server(sc);
  if (server.telemetry() != nullptr && server.telemetry()->running()) {
    std::printf("telemetry: http://127.0.0.1:%d (/metrics /streams /ledger "
                "/flight /trace)\n",
                server.telemetry()->port());
    std::fflush(stdout);
  }

  std::printf("submitting 4 streams (serial frame ~%.2f ms, pool=4)...\n",
              frame_ms);
  (void)server.submit(make_stream("or_1", 192, tight, 2.0, /*seed=*/11));
  (void)server.submit(make_stream("or_2", 192, tight, 2.0, /*seed=*/12));
  (void)server.submit(make_stream("review", 192, relaxed, 0.5, /*seed=*/13));
  (void)server.submit(make_stream("kiosk", 192, /*deadline=*/0.5, 1.0,
                                  /*seed=*/14));

  server.drain();

  std::printf("\nfirst batch:\n");
  for (const serve::StreamReport& s : server.reports()) print_stream(s);

  // A follow-up stream of the same class is priced from the registry.
  std::printf("\nsubmitting a warm follow-up of or_1's class...\n");
  const i32 warm_id =
      server.submit(make_stream("or_3", 192, tight, 2.0, /*seed=*/15));
  server.drain();
  print_stream(server.report(warm_id));

  const serve::FleetReport fleet = server.fleet();
  std::printf("\nfleet: submitted=%d admitted=%d queued=%d rejected=%d  "
              "frames=%llu  p50 %.2f  p99 %.2f  miss %.1f%%\n",
              fleet.submitted, fleet.admitted, fleet.queued, fleet.rejected,
              static_cast<unsigned long long>(fleet.frames), fleet.p50_ms,
              fleet.p99_ms, 100.0 * fleet.miss_rate);
  std::printf("admission: capacity %.2f cores, peak committed %.2f cores\n",
              fleet.capacity_cores, fleet.peak_committed_cores);
  std::printf("registry: %llu publishes, %llu warm hits\n",
              static_cast<unsigned long long>(fleet.registry_publishes),
              static_cast<unsigned long long>(fleet.registry_hits));

  if (obs::write_text_file("serve_fleet_metrics.prom",
                           obs::to_prometheus(obs::global().metrics))) {
    std::printf("\nwrote serve_fleet_metrics.prom\n");
  }

  if (fleet.rejected == 0) {
    std::printf("warning: the infeasible stream was not rejected\n");
    return 1;
  }
  if (!server.report(warm_id).warm_started) {
    std::printf("warning: follow-up stream did not warm-start\n");
    return 1;
  }
  if (linger_ms > 0) {
    std::printf("lingering %d ms for scrapers...\n", linger_ms);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  return 0;
}
