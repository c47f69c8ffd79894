// tcbench — end-to-end benchmark of the Triple-C runtime.
//
// Usage: tcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <file>] [--commit <id>]
//
// Prints host facts, the workload's constants, every metric by name with
// its unit and sample count, the output check, and as the last line one
// JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

using namespace tcbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: tcbench --workload fleet_256|roi_1024 "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      opt.workload = value;
      have_workload = true;
    } else if (std::strcmp(key, "--seed") == 0) {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      opt.seconds = std::atof(value);
    } else if (std::strcmp(key, "--trace") == 0) {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(key, "--trace-out") == 0) {
      opt.trace_out = value;
    } else if (std::strcmp(key, "--commit") == 0) {
      commit = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || !(opt.seconds > 0.0)) return usage();

  std::printf("host: affinity cores %d, pool threads %d, compiler %s, build "
              "%s, commit %s\n",
              affinity_cores(), kPoolThreads, compiler().c_str(),
              build_type().c_str(), commit.c_str());
  if (!release_build()) {
    std::fprintf(stderr, "tcbench: refusing to report from a non-Release "
                         "build\n");
    return 3;
  }
  std::printf("run: workload %s, seed %llu, %.1f s, trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);

  RunResult res;
  if (opt.workload == kRoi1024.name) {
    const double needed_s =
        kRoi1024.offered_frames * kRoi1024.period_ms / 1000.0;
    if (opt.seconds < needed_s) {
      std::fprintf(stderr, "tcbench: %s offers %d frames every %.0f ms and "
                           "needs --seconds %.0f or more, got %.1f\n",
                   kRoi1024.name, kRoi1024.offered_frames, kRoi1024.period_ms,
                   needed_s, opt.seconds);
      return 5;
    }
    res = run_stream_workload(kRoi1024, opt);
  } else if (opt.workload == kFleet256.name) {
    res = run_fleet_workload(kFleet256, opt);
  } else {
    return usage();
  }

  // After the workload, so it touches neither its timing nor its peak RSS.
  const double probe = host_probe_ms(kPoolThreads);
  std::printf("host probe: %.3f ms (fixed 4-thread streaming loop; compare "
              "runs only when it agrees)\n",
              probe);
  res.report.set("harness.host_probe_ms", probe, "ms", 8,
                 "median pass of the host speed probe");
  std::printf("metrics:\n");
  res.report.print(stdout);
  std::printf("output check: %s (%ld attempted, %ld failed)\n",
              res.correct ? "correct" : "FAILED", res.attempted, res.failed);
  const std::span<const MetricName> names =
      opt.trace ? std::span<const MetricName>(kPerLayer)
                : std::span<const MetricName>(kEndToEnd);
  for (const MetricName& n : names) {
    const Metric* m = res.report.find(n.name);
    if (m == nullptr || !std::isfinite(m->value)) {
      std::fprintf(stderr, "tcbench: metric %s missing or not finite\n",
                   n.name);
      return 4;
    }
  }
  const std::string json =
      res.report.result_json(res.correct, res.attempted, res.failed, names);
  std::printf("%s\n", json.c_str());
  return 0;
}
