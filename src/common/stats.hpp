// Descriptive statistics used throughout the Triple-C models: moments,
// autocorrelation (for validating Markov-chain applicability, paper §4),
// percentiles, histogramming and ordinary least squares.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace tc {

/// Arithmetic mean; 0 for an empty span.
[[nodiscard]] f64 mean(std::span<const f64> xs);

/// Population variance (divides by N); 0 for fewer than two elements.
[[nodiscard]] f64 variance(std::span<const f64> xs);

/// Population standard deviation.
[[nodiscard]] f64 stddev(std::span<const f64> xs);

/// Minimum / maximum of a non-empty span.
[[nodiscard]] f64 min_of(std::span<const f64> xs);
[[nodiscard]] f64 max_of(std::span<const f64> xs);

/// Normalized autocorrelation r(lag) in [-1, 1]; r(0) == 1.
/// Returns 0 when the series is constant or the lag exhausts the series.
[[nodiscard]] f64 autocorrelation(std::span<const f64> xs, usize lag);

/// Autocorrelation function for lags 0..max_lag (inclusive).
[[nodiscard]] std::vector<f64> autocorrelation_function(
    std::span<const f64> xs, usize max_lag);

/// Fit r(lag) ≈ exp(-lag/tau) and return tau (the correlation time).
/// Returns 0 when the series decorrelates immediately.
[[nodiscard]] f64 correlation_time(std::span<const f64> xs, usize max_lag);

/// Signed relative prediction error in percent, (predicted - measured) /
/// |measured| * 100; nullopt when |measured| < 1e-9 (no meaningful
/// reference).  The one error definition every accuracy report, drift
/// detector, ledger row and error histogram reads.
[[nodiscard]] std::optional<f64> relative_error_pct(f64 predicted,
                                                    f64 measured);

/// Linear interpolated percentile; p in [0, 100].
[[nodiscard]] f64 percentile(std::span<const f64> xs, f64 p);

/// Result of an ordinary-least-squares line fit y = slope * x + intercept.
struct LineFit {
  f64 slope = 0.0;
  f64 intercept = 0.0;
  /// Coefficient of determination in [0, 1].
  f64 r2 = 0.0;
};

/// Ordinary least squares over paired samples.  Requires xs.size() ==
/// ys.size(); a degenerate fit (fewer than two points, or constant x)
/// returns slope 0 and intercept mean(y).
[[nodiscard]] LineFit fit_line(std::span<const f64> xs,
                               std::span<const f64> ys);

/// Equal-width histogram over [min, max] with `bins` buckets.
struct Histogram {
  f64 lo = 0.0;
  f64 hi = 0.0;
  std::vector<u64> counts;
  [[nodiscard]] u64 total() const;
};

[[nodiscard]] Histogram make_histogram(std::span<const f64> xs, usize bins);

/// Streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(f64 x);
  [[nodiscard]] usize count() const { return n_; }
  [[nodiscard]] f64 mean() const { return n_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] f64 variance() const;
  [[nodiscard]] f64 stddev() const;
  [[nodiscard]] f64 min() const { return min_; }
  [[nodiscard]] f64 max() const { return max_; }

 private:
  usize n_ = 0;
  f64 mean_ = 0.0;
  f64 m2_ = 0.0;
  f64 min_ = 0.0;
  f64 max_ = 0.0;
};

}  // namespace tc
