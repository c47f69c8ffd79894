#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace tc {

f64 mean(std::span<const f64> xs) {
  if (xs.empty()) return 0.0;
  f64 s = 0.0;
  for (f64 x : xs) s += x;
  return s / static_cast<f64>(xs.size());
}

f64 variance(std::span<const f64> xs) {
  if (xs.size() < 2) return 0.0;
  f64 m = mean(xs);
  f64 s = 0.0;
  for (f64 x : xs) s += (x - m) * (x - m);
  return s / static_cast<f64>(xs.size());
}

f64 stddev(std::span<const f64> xs) { return std::sqrt(variance(xs)); }

f64 min_of(std::span<const f64> xs) {
  return *std::min_element(xs.begin(), xs.end());
}

f64 max_of(std::span<const f64> xs) {
  return *std::max_element(xs.begin(), xs.end());
}

f64 autocorrelation(std::span<const f64> xs, usize lag) {
  if (xs.size() <= lag) return 0.0;
  if (lag == 0) return 1.0;
  f64 m = mean(xs);
  f64 denom = 0.0;
  for (f64 x : xs) denom += (x - m) * (x - m);
  if (denom <= 0.0) return 0.0;
  f64 num = 0.0;
  for (usize i = 0; i + lag < xs.size(); ++i) {
    num += (xs[i] - m) * (xs[i + lag] - m);
  }
  return num / denom;
}

std::vector<f64> autocorrelation_function(std::span<const f64> xs,
                                          usize max_lag) {
  std::vector<f64> acf;
  acf.reserve(max_lag + 1);
  for (usize lag = 0; lag <= max_lag; ++lag) {
    acf.push_back(autocorrelation(xs, lag));
  }
  return acf;
}

f64 correlation_time(std::span<const f64> xs, usize max_lag) {
  // Fit log r(lag) = -lag / tau over the initial positive section of the ACF.
  std::vector<f64> lags;
  std::vector<f64> logr;
  for (usize lag = 1; lag <= max_lag; ++lag) {
    f64 r = autocorrelation(xs, lag);
    if (r <= 0.02) break;
    lags.push_back(static_cast<f64>(lag));
    logr.push_back(std::log(r));
  }
  if (lags.size() < 2) return 0.0;
  LineFit fit = fit_line(lags, logr);
  if (fit.slope >= 0.0) return 0.0;
  return -1.0 / fit.slope;
}

std::optional<f64> relative_error_pct(f64 predicted, f64 measured) {
  if (std::fabs(measured) < 1e-9) return std::nullopt;
  return (predicted - measured) / std::fabs(measured) * 100.0;
}

f64 percentile(std::span<const f64> xs, f64 p) {
  if (xs.empty()) return 0.0;
  std::vector<f64> s(xs.begin(), xs.end());
  std::sort(s.begin(), s.end());
  f64 clamped = std::clamp(p, 0.0, 100.0);
  f64 rank = clamped / 100.0 * static_cast<f64>(s.size() - 1);
  usize lo = static_cast<usize>(rank);
  usize hi = std::min(lo + 1, s.size() - 1);
  f64 frac = rank - static_cast<f64>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

LineFit fit_line(std::span<const f64> xs, std::span<const f64> ys) {
  LineFit fit;
  usize n = std::min(xs.size(), ys.size());
  if (n < 2) {
    fit.intercept = mean(ys);
    return fit;
  }
  f64 mx = mean(xs.subspan(0, n));
  f64 my = mean(ys.subspan(0, n));
  f64 sxx = 0.0;
  f64 sxy = 0.0;
  for (usize i = 0; i < n; ++i) {
    sxx += (xs[i] - mx) * (xs[i] - mx);
    sxy += (xs[i] - mx) * (ys[i] - my);
  }
  if (sxx <= 0.0) {
    fit.intercept = my;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  f64 ss_res = 0.0;
  f64 ss_tot = 0.0;
  for (usize i = 0; i < n; ++i) {
    f64 pred = fit.slope * xs[i] + fit.intercept;
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - my) * (ys[i] - my);
  }
  fit.r2 = ss_tot <= 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

u64 Histogram::total() const {
  u64 t = 0;
  for (u64 c : counts) t += c;
  return t;
}

Histogram make_histogram(std::span<const f64> xs, usize bins) {
  Histogram h;
  h.counts.assign(std::max<usize>(bins, 1), 0);
  if (xs.empty()) return h;
  h.lo = min_of(xs);
  h.hi = max_of(xs);
  f64 span = h.hi - h.lo;
  if (span <= 0.0) {
    h.counts[0] = xs.size();
    return h;
  }
  for (f64 x : xs) {
    auto idx = static_cast<usize>((x - h.lo) / span *
                                  static_cast<f64>(h.counts.size()));
    if (idx >= h.counts.size()) idx = h.counts.size() - 1;
    ++h.counts[idx];
  }
  return h;
}

void RunningStats::add(f64 x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  f64 delta = x - mean_;
  mean_ += delta / static_cast<f64>(n_);
  m2_ += delta * (x - mean_);
}

f64 RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<f64>(n_);
}

f64 RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace tc
