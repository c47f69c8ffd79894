#include "obs/slo.hpp"

#include <algorithm>

namespace tc::obs {

const char* to_string(SloKind k) {
  switch (k) {
    case SloKind::DeadlineMissRate:
      return "deadline_miss_rate";
    case SloKind::P99LatencyMs:
      return "p99_latency_ms";
    case SloKind::JitterP99MinusP50Ms:
      return "jitter_p99_minus_p50_ms";
  }
  return "unknown";
}

std::vector<SloSpec> deadline_slos(const std::string& prefix,
                                   f64 deadline_ms) {
  SloSpec miss;
  miss.name = prefix + "deadline_miss_rate";
  miss.kind = SloKind::DeadlineMissRate;
  miss.threshold = 0.25;
  SloSpec p99;
  p99.name = prefix + "p99_latency_ms";
  p99.kind = SloKind::P99LatencyMs;
  p99.threshold = 1.5 * deadline_ms;
  return {miss, p99};
}

SloMonitor::SloMonitor(std::vector<SloSpec> slos, MetricsRegistry* metrics)
    : specs_(std::move(slos)), metrics_(metrics) {
  common::MutexLock lock(mutex_);
  window_capacity_ = 1;
  for (const SloSpec& s : specs_) {
    window_capacity_ = std::max(window_capacity_,
                                static_cast<usize>(std::max(s.window, 1)));
  }
  last_breach_frame_.assign(specs_.size(), -1);
}

SloMonitor::WindowStats SloMonitor::window_snapshot() const {
  common::MutexLock lock(mutex_);
  return window_stats();
}

SloMonitor::WindowStats SloMonitor::window_stats() const {
  WindowStats w;
  if (window_.empty()) return w;
  w.frames = narrow<i64>(window_.size());
  usize misses = 0;
  std::vector<f64> lat;
  lat.reserve(window_.size());
  for (const auto& [ms, miss] : window_) {
    lat.push_back(ms);
    if (miss) ++misses;
  }
  w.miss_rate = static_cast<f64>(misses) / static_cast<f64>(window_.size());
  std::sort(lat.begin(), lat.end());
  auto pct = [&lat](f64 p) {
    const usize idx = static_cast<usize>(
        p / 100.0 * static_cast<f64>(lat.size() - 1) + 0.5);
    return lat[std::min(idx, lat.size() - 1)];
  };
  w.p50 = pct(50.0);
  w.p99 = pct(99.0);
  return w;
}

namespace {

f64 objective_value(const SloSpec& spec,
                    const SloMonitor::WindowStats& w) {
  switch (spec.kind) {
    case SloKind::DeadlineMissRate:
      return w.miss_rate;
    case SloKind::P99LatencyMs:
      return w.p99;
    case SloKind::JitterP99MinusP50Ms:
      return w.p99 - w.p50;
  }
  return 0.0;
}

}  // namespace

std::vector<SloBreach> SloMonitor::observe_frame(i32 frame, f64 latency_ms,
                                                 bool deadline_miss) {
  std::vector<SloBreach> breaches;
  common::MutexLock lock(mutex_);
  if (window_.size() < window_capacity_) {
    window_.emplace_back(latency_ms, deadline_miss);
  } else {
    window_[window_next_] = {latency_ms, deadline_miss};
  }
  window_next_ = (window_next_ + 1) % window_capacity_;
  ++frames_seen_;

  const WindowStats w = window_stats();
  for (usize i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    const f64 value = objective_value(spec, w);
    if (metrics_ != nullptr) {
      metrics_->gauge("tripleC_slo_value",
                      "Current value of each registered SLO",
                      label("slo", spec.name))
          .set(value);
    }
    const bool armed =
        frames_seen_ >= static_cast<i64>(spec.min_frames) &&
        (last_breach_frame_[i] < 0 ||
         frame - last_breach_frame_[i] >=
             static_cast<i64>(spec.cooldown_frames));
    if (armed && value > spec.threshold) {
      SloBreach b;
      b.slo = spec.name;
      b.kind = spec.kind;
      b.frame = frame;
      b.value = value;
      b.threshold = spec.threshold;
      last_breach_frame_[i] = frame;
      ++breaches_total_;
      if (metrics_ != nullptr) {
        metrics_->counter("tripleC_slo_breaches_total",
                          "Breaches fired per SLO", label("slo", spec.name))
            .add();
      }
      breaches.push_back(std::move(b));
    }
  }
  return breaches;
}

u64 SloMonitor::breaches_total() const {
  common::MutexLock lock(mutex_);
  return breaches_total_;
}

}  // namespace tc::obs
