#include "tripleC/accuracy.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/stats.hpp"
#include "obs/obs.hpp"

namespace tc::model {

AccuracyReport evaluate_accuracy(std::span<const f64> predicted,
                                 std::span<const f64> measured) {
  AccuracyReport r;
  const usize n = std::min(predicted.size(), measured.size());
  f64 acc_sum = 0.0;
  f64 err_sum = 0.0;
  usize over20 = 0;
  usize over30 = 0;
  for (usize i = 0; i < n; ++i) {
    const std::optional<f64> err =
        relative_error_pct(predicted[i], measured[i]);
    if (!err.has_value()) continue;
    const f64 err_pct = std::fabs(*err);
    err_sum += err_pct;
    acc_sum += std::max(0.0, 100.0 - err_pct);
    r.max_error_pct = std::max(r.max_error_pct, err_pct);
    if (err_pct > 20.0) ++over20;
    if (err_pct > 30.0) ++over30;
    ++r.samples;
  }
  if (r.samples > 0) {
    r.mean_accuracy_pct = acc_sum / static_cast<f64>(r.samples);
    r.mape_pct = err_sum / static_cast<f64>(r.samples);
    r.excursions_over_20_pct =
        static_cast<f64>(over20) / static_cast<f64>(r.samples);
    r.excursions_over_30_pct =
        static_cast<f64>(over30) / static_cast<f64>(r.samples);
  }
  if (obs::enabled()) {
    obs::MetricsRegistry& m = obs::global().metrics;
    m.gauge("tripleC_accuracy_mean_pct",
            "Mean prediction accuracy of the last evaluation")
        .set(r.mean_accuracy_pct);
    m.gauge("tripleC_accuracy_mape_pct",
            "Mean absolute percentage error of the last evaluation")
        .set(r.mape_pct);
    m.gauge("tripleC_accuracy_max_error_pct",
            "Largest single-sample error of the last evaluation")
        .set(r.max_error_pct);
    m.gauge("tripleC_accuracy_samples",
            "Sample count of the last accuracy evaluation")
        .set(static_cast<f64>(r.samples));
  }
  return r;
}

std::string to_string(const AccuracyReport& r) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << "accuracy " << r.mean_accuracy_pct
     << "% (MAPE " << r.mape_pct << "%, max error " << r.max_error_pct
     << "%, >20% on " << std::setprecision(2)
     << r.excursions_over_20_pct * 100.0 << "% of " << r.samples
     << " samples)";
  return os.str();
}

}  // namespace tc::model
