// triplec_top — a polling terminal dashboard over the live telemetry plane.
//
// Connects to a process running obs::TelemetryServer (serve_fleet
// --telemetry-port, or any StreamServer with ServeConfig::telemetry on),
// polls /streams and /metrics, and renders a refreshing ASCII fleet view:
// one row per stream (state, admission verdict, fair-share numbers, SLO
// window, rolling CPU calibration) plus a headline of fleet gauges scraped
// from the Prometheus text.
//
//   triplec_top --port N [--host 127.0.0.1] [--interval-ms 1000]
//               [--iterations 0]
//
// --iterations K stops after K refreshes (0 = run until the endpoint goes
// away); useful for CI and scripting.  Exit code 1 when the first poll
// already fails (nothing is listening).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/json.hpp"
#include "obs/telemetry_server.hpp"

using namespace tc;

namespace {

/// First sample value of family `name` in a Prometheus text page (NAN-free:
/// returns `fallback` when absent).
f64 prom_value(const std::string& text, const std::string& name,
               f64 fallback) {
  usize pos = 0;
  while (pos < text.size()) {
    usize eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line =
        std::string_view(text).substr(pos, eol - pos);
    if (line.substr(0, name.size()) == name &&
        (line.size() == name.size() || line[name.size()] == ' ' ||
         line[name.size()] == '{')) {
      const usize sp = line.rfind(' ');
      if (sp != std::string_view::npos) {
        return std::atof(std::string(line.substr(sp + 1)).c_str());
      }
    }
    pos = eol + 1;
  }
  return fallback;
}

void render(const common::JsonValue& fleet, const std::string& metrics,
            const std::string& host, i32 port, bool tty) {
  if (tty) std::printf("\033[2J\033[H");  // clear + home
  const common::JsonValue* draining = fleet.find("draining");
  std::printf("triplec_top — %s:%d   draining=%s   cores %.2f/%.2f "
              "committed   flight_drops %.0f\n",
              host.c_str(), port,
              draining != nullptr && draining->as_bool() ? "yes" : "no",
              fleet.number_or("committed_cores", 0.0),
              fleet.number_or("capacity_cores", 0.0),
              prom_value(metrics, "tripleC_flight_dropped_total", 0.0));

  const common::JsonValue& slo = fleet.get("fleet_slo");
  std::printf("fleet: %lld frames   window p50 %.2f ms  p99 %.2f ms  miss "
              "%.1f%%   active=%lld queued=%lld done=%lld rejected=%lld\n\n",
              static_cast<long long>(fleet.number_or("fleet_frames", 0.0)),
              slo.number_or("p50_ms", 0.0), slo.number_or("p99_ms", 0.0),
              100.0 * slo.number_or("miss_rate", 0.0),
              static_cast<long long>(fleet.number_or("active", 0.0)),
              static_cast<long long>(fleet.number_or("queued", 0.0)),
              static_cast<long long>(fleet.number_or("done", 0.0)),
              static_cast<long long>(fleet.number_or("rejected", 0.0)));

  std::printf("%-10s %-8s %-7s %6s %6s %7s %9s %7s %7s %6s %9s %9s\n",
              "STREAM", "STATE", "VERDICT", "W", "SHARE", "FRAMES", "VTIME",
              "P99MS", "DDL-MS", "MISS%", "BIAS%", "P95APE%");
  for (const common::JsonValue& s : fleet.get("streams").items()) {
    const common::JsonValue& w = s.get("slo");
    const common::JsonValue& cal = s.get("calibration");
    char frames[32];
    std::snprintf(frames, sizeof(frames), "%lld/%lld",
                  static_cast<long long>(s.number_or("frames_done", 0.0)),
                  static_cast<long long>(s.number_or("frames_total", 0.0)));
    const bool has_cal = cal.number_or("samples", 0.0) > 0.0;
    char bias[16] = "-";
    char ape[16] = "-";
    if (has_cal) {
      std::snprintf(bias, sizeof(bias), "%.1f",
                    cal.number_or("cpu_bias_pct", 0.0));
      std::snprintf(ape, sizeof(ape), "%.1f",
                    cal.number_or("cpu_p95_ape_pct", 0.0));
    }
    std::printf("%-10s %-8s %-7s %6.1f %6lld %7s %9.1f %7.2f %7.2f %6.1f "
                "%9s %9s\n",
                s.string_or("name", "?").c_str(),
                s.string_or("state", "?").c_str(),
                s.string_or("verdict", "?").c_str(),
                s.number_or("weight", 0.0),
                static_cast<long long>(s.number_or("pool_share", 0.0)),
                frames, s.number_or("vtime_ms", 0.0),
                w.number_or("p99_ms", 0.0), s.number_or("deadline_ms", 0.0),
                100.0 * w.number_or("miss_rate", 0.0), bias, ape);
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  i32 port = -1;
  i32 interval_ms = 1000;
  i32 iterations = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      host = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--interval-ms") == 0 && i + 1 < argc) {
      interval_ms = std::max(50, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      iterations = std::atoi(argv[++i]);
    } else {
      std::printf("usage: triplec_top --port N [--host H] [--interval-ms M] "
                  "[--iterations K]\n");
      return 2;
    }
  }
  if (port < 0) {
    std::printf("triplec_top: --port is required (serve_fleet "
                "--telemetry-port prints it)\n");
    return 2;
  }

  const bool tty = ::isatty(STDOUT_FILENO) == 1;
  for (i32 round = 0; iterations <= 0 || round < iterations; ++round) {
    const obs::HttpResult streams = obs::http_get(host, port, "/streams");
    const obs::HttpResult metrics = obs::http_get(host, port, "/metrics");
    if (streams.status != 200) {
      if (round == 0) {
        std::printf("triplec_top: no telemetry endpoint at %s:%d\n",
                    host.c_str(), port);
        return 1;
      }
      std::printf("endpoint went away after %d polls, exiting\n", round);
      return 0;
    }
    try {
      render(common::JsonValue::parse(streams.body), metrics.body, host, port,
             tty);
    } catch (const common::JsonError& e) {
      std::printf("triplec_top: bad /streams JSON: %s\n", e.what());
      return 1;
    }
    if (iterations > 0 && round + 1 >= iterations) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}
