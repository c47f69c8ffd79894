// Sample statistics for the benchmark: percentiles that know how many
// samples back them.
//
// A percentile is only as good as the tail behind it, so percentile()
// refuses (returns nullopt) when fewer than kMinBeyond samples lie above the
// requested rank.  With 200 samples p95 has exactly 10 samples beyond it;
// with 199 it is refused.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace tcbench {

inline constexpr std::size_t kMinBeyond = 10;

class Samples {
 public:
  void add(double v) { values_.push_back(v); }

  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  /// Samples strictly above the nearest-rank position of quantile `q`.
  [[nodiscard]] std::size_t beyond(double q) const {
    const std::size_t n = values_.size();
    if (n == 0) return 0;
    return n - rank(q);
  }

  /// Nearest-rank percentile (q in (0, 1)); nullopt when fewer than
  /// kMinBeyond samples lie beyond it.
  [[nodiscard]] std::optional<double> percentile(double q) const {
    if (values_.empty() || beyond(q) < kMinBeyond) return std::nullopt;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    return sorted[rank(q) - 1];
  }

  [[nodiscard]] double mean() const {
    if (values_.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }

 private:
  /// 1-based nearest rank: ceil(q * n), at least 1.
  [[nodiscard]] std::size_t rank(double q) const {
    const double n = static_cast<double>(values_.size());
    const auto r = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
    return std::clamp<std::size_t>(r, 1, values_.size());
  }

  std::vector<double> values_;
};

/// Plain median for small repeated measurements (set-up times, a handful of
/// fleet rounds) where no tail is claimed.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace tcbench
