// Host and process facts: cores in the affinity mask, process CPU time,
// resident set, and the build the harness was compiled as.
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "open_loop.hpp"
#include "stats.hpp"

#ifndef TCBENCH_BUILD_TYPE
#define TCBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TCBENCH_COMPILER
#define TCBENCH_COMPILER "unknown"
#endif

namespace tcbench {

/// Cores this process may run on (sched_getaffinity), not the machine's.
[[nodiscard]] inline int affinity_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  return CPU_COUNT(&set);
}

/// User + system CPU time of every thread of the process, milliseconds.
[[nodiscard]] inline double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Peak resident set of the process so far, MiB.
[[nodiscard]] inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Current resident set, MiB (from /proc/self/statm).
[[nodiscard]] inline double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Return freed heap pages to the system (glibc; a no-op elsewhere).
inline void release_free_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

[[nodiscard]] inline std::string build_type() { return TCBENCH_BUILD_TYPE; }
[[nodiscard]] inline std::string compiler() { return TCBENCH_COMPILER; }

/// Timings are only reported from an optimized build with assertions off.
[[nodiscard]] inline bool release_build() {
#ifdef NDEBUG
  return build_type() == "Release";
#else
  return false;
#endif
}

/// Host speed probe: a fixed streaming floating-point loop (four sweeps
/// over 8 MiB) on each of `threads` threads, median of 8 passes, ms.  The code is the benchmark's
/// own, so only the host changes it; it shows how fast the machine ran.
[[nodiscard]] inline double host_probe_ms(int threads) {
  constexpr std::size_t kFloats = std::size_t{1} << 21;  // 8 MiB per thread
  std::vector<std::vector<float>> bufs(static_cast<std::size_t>(threads),
                                       std::vector<float>(kFloats, 1.0f));
  std::vector<double> sums(static_cast<std::size_t>(threads), 0.0);
  std::vector<double> pass_ms;
  for (int pass = 0; pass < 8; ++pass) {
    const Clock::time_point a = Clock::now();
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < bufs.size(); ++t) {
      workers.emplace_back([&bufs, &sums, t] {
        float acc = 0.0f;
        for (int sweep = 0; sweep < 4; ++sweep) {
          for (float& v : bufs[t]) {
            v = v * 0.999f + 0.5f;
            acc += v;
          }
        }
        sums[t] += acc;
      });
    }
    for (std::thread& w : workers) w.join();
    pass_ms.push_back(ms_between(a, Clock::now()));
  }
  return median(pass_ms);
}

}  // namespace tcbench
