// Metric registry of one run: every metric is printed by name with its unit
// and sample count, and the selected set is emitted as the result line.
#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "stats.hpp"

namespace tcbench {

struct MetricName {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced runs).  Must match BENCHMARK.json.
inline constexpr MetricName kEndToEnd[] = {
    {"e2e_p50_ms", "ms"},       {"e2e_p95_ms", "ms"},
    {"late_pct", "%"},          {"throughput_fps", "1/s"},
    {"cpu_ms_per_frame", "ms"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics (traced runs).  Must match BENCHMARK.json.
inline constexpr MetricName kPerLayer[] = {
    {"exec.step_ms.p50", "ms"},
    {"exec.step_ms.p95", "ms"},
    {"exec.queue_wait_ms.p95", "ms"},
    {"exec.control_overhead_ms.p50", "ms"},
    {"exec.stripes_per_frame", "count"},
    {"exec.repartitions", "count"},
    {"exec.deadline_miss_pct", "%"},
    {"tripleC.cpu_ape_p50_pct", "%"},
    {"tripleC.cpu_ape_p95_pct", "%"},
    {"imaging.render_ms", "ms"},
    {"imaging.gaussian_blur_mpx_s", "Mpx/s"},
    {"imaging.hessian_mpx_s", "Mpx/s"},
    {"imaging.ridgeness_mpx_s", "Mpx/s"},
    {"imaging.resample_bicubic_mpx_s", "Mpx/s"},
    {"imaging.zoom_mpx_s", "Mpx/s"},
    {"imaging.enhance_ms", "ms"},
    {"app.admit_ms", "ms"},
    {"app.front_ms", "ms"},
    {"app.back_ms", "ms"},
    {"app.retire_ms", "ms"},
    {"app.node.RDG_FULL_ms", "ms"},
    {"app.node.RDG_ROI_ms", "ms"},
    {"app.node.MKX_FULL_ms", "ms"},
    {"app.node.MKX_ROI_ms", "ms"},
    {"app.node.REG_ms", "ms"},
    {"app.node.ENH_ms", "ms"},
    {"app.node.ZOOM_ms", "ms"},
    {"app.serial_frame_ms", "ms"},
    {"platform.run_all_empty_us", "us"},
    {"platform.shared_batch_wait_ms", "ms"},
    {"runtime.choose_plan_us", "us"},
    {"serve.submit_ms", "ms"},
    {"serve.compute_p99_ms", "ms"},
    {"serve.deadline_miss_pct", "%"},
    {"serve.task_ms_per_frame", "ms"},
    {"obs.scrape_ms.p50", "ms"},
    {"obs.metrics_bytes", "bytes"},
    {"obs.rss_growth_mb", "MiB"},
    {"harness.trace_overhead_ms", "ms"},
    {"harness.arrival_lag_ms.max", "ms"},
    {"harness.spans_dropped", "count"},
    {"harness.host_probe_ms", "ms"},
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples, const std::string& note = "") {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m = Metric{name, value, unit, samples, note};
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit, samples, note});
  }

  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  /// One line per metric: name, value, unit, sample count, note.
  void print(std::FILE* out) const {
    for (const Metric& m : metrics_) {
      std::fprintf(out, "  %-34s %14.4f %-6s n=%-6zu %s\n", m.name.c_str(),
                   m.value, m.unit.c_str(), m.samples, m.note.c_str());
    }
  }

  /// The result line over `names`; every one of them must be set.
  [[nodiscard]] std::string result_json(bool correct, long attempted,
                                        long failed,
                                        std::span<const MetricName> names) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricName& n : names) {
      const Metric* m = find(n.name);
      char value[64];
      std::snprintf(value, sizeof(value), "%.10g", m->value);
      if (!first) out += ", ";
      first = false;
      out += "\"" + m->name + "\": {\"value\": " + value + ", \"unit\": \"" +
             n.unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

/// Set `name` to the q-percentile of `s`; when too few samples back it,
/// report their mean and say so in the note.
inline void set_percentile(Report& rep, const char* name, const Samples& s,
                           double q, const char* unit, const char* note = "") {
  const std::optional<double> v = s.percentile(q);
  if (v.has_value()) {
    rep.set(name, *v, unit, s.count(), note);
  } else {
    rep.set(name, s.mean(), unit, s.count(),
            "refused percentile (too few samples); mean");
  }
}

}  // namespace tcbench
