#include "common/stats.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace tc {
namespace {

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Stats, MeanBasic) {
  std::vector<f64> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, VarianceOfEmptyAndSingleElementIsZero) {
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  std::vector<f64> one{42.0};
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
  EXPECT_DOUBLE_EQ(stddev(one), 0.0);
}

TEST(Stats, VarianceOfConstantIsZero) {
  std::vector<f64> xs{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(variance(xs), 0.0);
}

TEST(Stats, VarianceKnownValue) {
  std::vector<f64> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, MinMax) {
  std::vector<f64> xs{3.0, -1.0, 7.0, 2.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
}

TEST(Stats, AutocorrelationLagZeroIsOne) {
  std::vector<f64> xs{1.0, 3.0, 2.0, 5.0, 4.0};
  EXPECT_DOUBLE_EQ(autocorrelation(xs, 0), 1.0);
}

TEST(Stats, AutocorrelationConstantSeriesIsZero) {
  std::vector<f64> xs(50, 2.0);
  EXPECT_DOUBLE_EQ(autocorrelation(xs, 1), 0.0);
}

TEST(Stats, AutocorrelationAlternatingSeriesIsNegative) {
  std::vector<f64> xs;
  for (i32 i = 0; i < 100; ++i) xs.push_back(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_LT(autocorrelation(xs, 1), -0.9);
}

TEST(Stats, AutocorrelationOfAr1DecaysExponentially) {
  // x_k = phi * x_{k-1} + noise has r(l) ≈ phi^l.
  Pcg32 rng(7);
  const f64 phi = 0.8;
  std::vector<f64> xs{0.0};
  for (i32 i = 1; i < 20000; ++i) {
    xs.push_back(phi * xs.back() + rng.normal());
  }
  EXPECT_NEAR(autocorrelation(xs, 1), phi, 0.05);
  EXPECT_NEAR(autocorrelation(xs, 2), phi * phi, 0.05);
  EXPECT_NEAR(autocorrelation(xs, 4), std::pow(phi, 4), 0.06);
}

TEST(Stats, AutocorrelationFunctionLength) {
  std::vector<f64> xs{1.0, 2.0, 1.0, 2.0, 1.0, 2.0};
  auto acf = autocorrelation_function(xs, 3);
  ASSERT_EQ(acf.size(), 4u);
  EXPECT_DOUBLE_EQ(acf[0], 1.0);
}

TEST(Stats, CorrelationTimeOfAr1) {
  Pcg32 rng(11);
  const f64 phi = 0.9;  // tau = -1/ln(phi) ≈ 9.49
  std::vector<f64> xs{0.0};
  for (i32 i = 1; i < 40000; ++i) xs.push_back(phi * xs.back() + rng.normal());
  f64 tau = correlation_time(xs, 30);
  EXPECT_NEAR(tau, -1.0 / std::log(phi), 2.0);
}

TEST(Stats, CorrelationTimeOfWhiteNoiseIsSmall) {
  Pcg32 rng(13);
  std::vector<f64> xs;
  for (i32 i = 0; i < 5000; ++i) xs.push_back(rng.normal());
  EXPECT_LT(correlation_time(xs, 30), 1.5);
}

TEST(Stats, PercentileEndpoints) {
  std::vector<f64> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<f64> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.5);
}

TEST(Stats, RelativeErrorPctIsSignedAndSkipsZeroMeasurements) {
  EXPECT_DOUBLE_EQ(*relative_error_pct(12.0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(*relative_error_pct(8.0, 10.0), -20.0);
  // Normalised by |measured|: the sign follows predicted - measured.
  EXPECT_DOUBLE_EQ(*relative_error_pct(-8.0, -10.0), 20.0);
  EXPECT_FALSE(relative_error_pct(5.0, 0.0).has_value());
  EXPECT_FALSE(relative_error_pct(5.0, 9e-10).has_value());
  EXPECT_TRUE(relative_error_pct(5.0, 1e-9).has_value());
}

TEST(Stats, RelativeErrorPctMagnitudeMatchesAbsoluteFormulaBitForBit) {
  Pcg32 rng(11);
  for (i32 i = 0; i < 100000; ++i) {
    const f64 p = rng.uniform(-1e3, 1e3);
    const f64 m = rng.uniform(-1e3, 1e3);
    const std::optional<f64> err = relative_error_pct(p, m);
    ASSERT_TRUE(err.has_value());
    const f64 absolute = std::fabs(p - m) / std::fabs(m) * 100.0;
    ASSERT_EQ(std::fabs(*err), absolute) << p << " vs " << m;
  }
}

TEST(Stats, FitLineRecoversCoefficients) {
  std::vector<f64> xs;
  std::vector<f64> ys;
  for (i32 i = 0; i < 50; ++i) {
    xs.push_back(static_cast<f64>(i));
    ys.push_back(0.067 * static_cast<f64>(i) + 20.6);
  }
  LineFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 0.067, 1e-12);
  EXPECT_NEAR(fit.intercept, 20.6, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, FitLineNoisy) {
  Pcg32 rng(3);
  std::vector<f64> xs;
  std::vector<f64> ys;
  for (i32 i = 0; i < 2000; ++i) {
    f64 x = rng.uniform(0.0, 100.0);
    xs.push_back(x);
    ys.push_back(2.0 * x + 5.0 + rng.normal(0.0, 1.0));
  }
  LineFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 0.01);
  EXPECT_NEAR(fit.intercept, 5.0, 0.5);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(Stats, FitLineDegenerateConstantX) {
  std::vector<f64> xs{2.0, 2.0, 2.0};
  std::vector<f64> ys{1.0, 2.0, 3.0};
  LineFit fit = fit_line(xs, ys);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(Stats, FitLineFewerThanTwoPoints) {
  std::vector<f64> xs{1.0};
  std::vector<f64> ys{7.0};
  LineFit fit = fit_line(xs, ys);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 7.0);
}

TEST(Stats, HistogramCountsSumToSampleCount) {
  Pcg32 rng(5);
  std::vector<f64> xs;
  for (i32 i = 0; i < 1000; ++i) xs.push_back(rng.normal());
  Histogram h = make_histogram(xs, 16);
  EXPECT_EQ(h.total(), 1000u);
  EXPECT_EQ(h.counts.size(), 16u);
}

TEST(Stats, HistogramConstantSeries) {
  std::vector<f64> xs(10, 3.0);
  Histogram h = make_histogram(xs, 8);
  EXPECT_EQ(h.counts[0], 10u);
  EXPECT_EQ(h.total(), 10u);
}

TEST(RunningStats, MatchesBatchStatistics) {
  Pcg32 rng(9);
  std::vector<f64> xs;
  RunningStats rs;
  for (i32 i = 0; i < 500; ++i) {
    f64 x = rng.uniform(-5.0, 5.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), 500u);
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), min_of(xs));
  EXPECT_DOUBLE_EQ(rs.max(), max_of(xs));
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

// Property sweep: percentile is monotone in p for arbitrary data.
class PercentileMonotone : public ::testing::TestWithParam<u64> {};

TEST_P(PercentileMonotone, MonotoneInP) {
  Pcg32 rng(GetParam());
  std::vector<f64> xs;
  for (i32 i = 0; i < 200; ++i) xs.push_back(rng.uniform(-100.0, 100.0));
  f64 prev = percentile(xs, 0);
  for (f64 p = 5.0; p <= 100.0; p += 5.0) {
    f64 cur = percentile(xs, p);
    EXPECT_GE(cur, prev) << "p=" << p;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace tc
