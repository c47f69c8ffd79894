#include "obs/drift.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace tc::obs {

bool PageHinkley::observe(f64 x) {
  ++n_;
  mean_ += (x - mean_) / static_cast<f64>(n_);
  m_ += x - mean_ - delta_;
  min_m_ = std::min(min_m_, m_);
  return statistic() > lambda_;
}

void PageHinkley::reset() {
  mean_ = 0.0;
  m_ = 0.0;
  min_m_ = 0.0;
  n_ = 0;
}

bool Cusum::observe(f64 x) {
  const f64 d = x - reference_;
  g_pos_ = std::max(0.0, g_pos_ + d - k_);
  g_neg_ = std::max(0.0, g_neg_ - d - k_);
  return g_pos_ > h_ || g_neg_ > h_;
}

void Cusum::reset() {
  g_pos_ = 0.0;
  g_neg_ = 0.0;
}

const char* to_string(DriftDetector d) {
  switch (d) {
    case DriftDetector::Threshold:
      return "threshold";
    case DriftDetector::PageHinkley:
      return "page_hinkley";
    case DriftDetector::Cusum:
      return "cusum";
  }
  return "unknown";
}

DriftMonitor::DriftMonitor(DriftConfig config, MetricsRegistry* metrics)
    : config_(config), metrics_(metrics) {}

void DriftMonitor::set_callback(Callback cb) {
  common::MutexLock lock(mutex_);
  callback_ = std::move(cb);
}

DriftMonitor::Stream& DriftMonitor::stream_of(std::string_view name) {
  for (auto& s : streams_) {
    if (s->name == name) return *s;
  }
  streams_.push_back(std::make_unique<Stream>(std::string(name), config_));
  return *streams_.back();
}

std::optional<DriftAlert> DriftMonitor::observe(std::string_view stream,
                                                i32 frame, f64 predicted_ms,
                                                f64 measured_ms) {
  const std::optional<f64> signed_error =
      relative_error_pct(predicted_ms, measured_ms);
  if (!signed_error.has_value()) return std::nullopt;
  const f64 error_pct = std::fabs(*signed_error);

  std::optional<DriftAlert> alert;
  Callback cb;
  {
    common::MutexLock lock(mutex_);
    Stream& s = stream_of(stream);
    ++s.frames;
    if (!s.primed) {
      s.smoothed_error_pct = error_pct;
      s.primed = true;
    } else {
      s.smoothed_error_pct += config_.error_alpha *
                              (error_pct - s.smoothed_error_pct);
    }
    // CUSUM references the warm-up error level: the stream's *normal*
    // inaccuracy is learned, excursions beyond it are drift.
    if (s.frames <= config_.min_frames) {
      s.warmup_error_sum += error_pct;
      if (s.frames == config_.min_frames) {
        const f64 ref = s.warmup_error_sum / static_cast<f64>(s.frames);
        s.cusum.emplace(ref, config_.cusum_k_pct, config_.cusum_h_pct);
      }
    }

    const bool ph_fired = s.ph.observe(error_pct);
    const bool cusum_fired = s.cusum.has_value() && s.cusum->observe(error_pct);
    const bool threshold_fired =
        s.smoothed_error_pct > config_.error_threshold_pct;

    if (metrics_ != nullptr) {
      const std::string labels = label("predictor", s.name);
      metrics_->gauge("tripleC_drift_error_pct",
                      "Smoothed |predicted-measured|/measured per predictor",
                      labels)
          .set(s.smoothed_error_pct);
      metrics_->gauge("tripleC_drift_ph_statistic",
                      "Page-Hinkley drift statistic per predictor", labels)
          .set(s.ph.statistic());
    }

    const bool armed = s.frames > config_.min_frames &&
                       (s.last_alert_frame < 0 ||
                        frame - s.last_alert_frame >=
                            static_cast<i64>(config_.cooldown_frames));
    if (armed && (ph_fired || cusum_fired || threshold_fired)) {
      DriftAlert a;
      a.stream = s.name;
      a.frame = frame;
      a.smoothed_error_pct = s.smoothed_error_pct;
      if (ph_fired) {
        a.detector = DriftDetector::PageHinkley;
        a.statistic = s.ph.statistic();
        a.threshold = s.ph.lambda();
      } else if (cusum_fired) {
        a.detector = DriftDetector::Cusum;
        a.statistic = std::max(s.cusum->positive(), s.cusum->negative());
        a.threshold = s.cusum->threshold();
      } else {
        a.detector = DriftDetector::Threshold;
        a.statistic = s.smoothed_error_pct;
        a.threshold = config_.error_threshold_pct;
      }
      s.last_alert_frame = frame;
      // Re-arm the sequential detectors: they accumulate history that
      // otherwise keeps them saturated past the alert.
      s.ph.reset();
      if (s.cusum.has_value()) s.cusum->reset();
      ++alerts_total_;
      if (metrics_ != nullptr) {
        metrics_->counter("tripleC_drift_alerts_total",
                          "Drift alerts fired per predictor",
                          label("predictor", s.name))
            .add();
      }
      alert = a;
      cb = callback_;
    }
  }
  if (alert.has_value() && cb) cb(*alert);
  return alert;
}

f64 DriftMonitor::smoothed_error_pct(std::string_view stream) const {
  common::MutexLock lock(mutex_);
  for (const auto& s : streams_) {
    if (s->name == stream) return s->smoothed_error_pct;
  }
  return 0.0;
}

u64 DriftMonitor::alerts_total() const {
  common::MutexLock lock(mutex_);
  return alerts_total_;
}

i32 DriftMonitor::stream_index(std::string_view stream) const {
  common::MutexLock lock(mutex_);
  for (usize i = 0; i < streams_.size(); ++i) {
    if (streams_[i]->name == stream) return narrow<i32>(i);
  }
  return -1;
}

void DriftMonitor::reset() {
  common::MutexLock lock(mutex_);
  streams_.clear();
  alerts_total_ = 0;
}

// ---------------------------------------------------------------------------

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

void SloMonitor::set_callback(Callback cb) {
  common::MutexLock lock(mutex_);
  callback_ = std::move(cb);
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

std::vector<SloBreach> SloMonitor::observe_frame(i32 frame, f64 latency_ms,
                                                 bool deadline_miss) {
  std::vector<SloBreach> breaches;
  Callback cb;
  {
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
      f64 value = 0.0;
      switch (spec.kind) {
        case SloKind::DeadlineMissRate:
          value = w.miss_rate;
          break;
        case SloKind::P99LatencyMs:
          value = w.p99;
          break;
        case SloKind::JitterP99MinusP50Ms:
          value = w.p99 - w.p50;
          break;
      }
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
    cb = callback_;
  }
  if (cb) {
    for (const SloBreach& b : breaches) cb(b);
  }
  return breaches;
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

f64 SloMonitor::current(std::string_view slo) const {
  common::MutexLock lock(mutex_);
  const WindowStats w = window_stats();
  for (const SloSpec& spec : specs_) {
    if (spec.name == slo) return objective_value(spec, w);
  }
  return 0.0;
}

SloMonitor::Snapshot SloMonitor::snapshot() const {
  common::MutexLock lock(mutex_);
  Snapshot s;
  s.window = window_stats();
  s.objectives.reserve(specs_.size());
  for (const SloSpec& spec : specs_) {
    s.objectives.push_back(ObjectiveStatus{spec, objective_value(spec, s.window)});
  }
  s.breaches_total = breaches_total_;
  s.frames_seen = frames_seen_;
  return s;
}

u64 SloMonitor::breaches_total() const {
  common::MutexLock lock(mutex_);
  return breaches_total_;
}

void SloMonitor::reset() {
  common::MutexLock lock(mutex_);
  window_.clear();
  window_next_ = 0;
  frames_seen_ = 0;
  last_breach_frame_.assign(specs_.size(), -1);
  breaches_total_ = 0;
}

}  // namespace tc::obs
