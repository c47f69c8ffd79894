#include "common/rng.hpp"

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace tc {
namespace {

TEST(SplitMix64, DeterministicForSameSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (i32 i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Pcg32, DeterministicForSameSeedAndStream) {
  Pcg32 a(123, 4);
  Pcg32 b(123, 4);
  for (i32 i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, StreamsAreIndependent) {
  Pcg32 a(123, 0);
  Pcg32 b(123, 1);
  i32 equal = 0;
  for (i32 i = 0; i < 1000; ++i) {
    if (a.next_u32() == b.next_u32()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Pcg32, NextF64InUnitInterval) {
  Pcg32 rng(7);
  for (i32 i = 0; i < 10000; ++i) {
    f64 x = rng.next_f64();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Pcg32, UniformRespectsBounds) {
  Pcg32 rng(8);
  for (i32 i = 0; i < 10000; ++i) {
    f64 x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Pcg32, UniformIntCoversRangeInclusive) {
  Pcg32 rng(9);
  std::set<i32> seen;
  for (i32 i = 0; i < 10000; ++i) {
    i32 x = rng.uniform_int(2, 6);
    EXPECT_GE(x, 2);
    EXPECT_LE(x, 6);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Pcg32, NormalHasUnitMoments) {
  Pcg32 rng(10);
  std::vector<f64> xs;
  for (i32 i = 0; i < 100000; ++i) xs.push_back(rng.normal());
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
  EXPECT_NEAR(stddev(xs), 1.0, 0.02);
}

TEST(Pcg32, NormalWithParameters) {
  Pcg32 rng(11);
  std::vector<f64> xs;
  for (i32 i = 0; i < 50000; ++i) xs.push_back(rng.normal(10.0, 2.0));
  EXPECT_NEAR(mean(xs), 10.0, 0.05);
  EXPECT_NEAR(stddev(xs), 2.0, 0.05);
}

TEST(Pcg32, PoissonZeroLambda) {
  Pcg32 rng(12);
  for (i32 i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0);
}

class PoissonMoments : public ::testing::TestWithParam<f64> {};

TEST_P(PoissonMoments, MeanAndVarianceEqualLambda) {
  const f64 lambda = GetParam();
  Pcg32 rng(static_cast<u64>(lambda * 1000) + 1);
  std::vector<f64> xs;
  for (i32 i = 0; i < 40000; ++i) {
    xs.push_back(static_cast<f64>(rng.poisson(lambda)));
  }
  EXPECT_NEAR(mean(xs), lambda, std::max(0.05, lambda * 0.03));
  EXPECT_NEAR(variance(xs), lambda, std::max(0.2, lambda * 0.06));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonMoments,
                         ::testing::Values(0.5, 2.0, 8.0, 32.0, 100.0, 900.0));

TEST(Pcg32, UniformBitsAreBalanced) {
  Pcg32 rng(13);
  i32 ones = 0;
  const i32 n = 10000;
  for (i32 i = 0; i < n; ++i) {
    ones += static_cast<i32>(rng.next_u32() & 1u);
  }
  EXPECT_NEAR(static_cast<f64>(ones) / n, 0.5, 0.02);
}

TEST(Pcg32, AdvanceEqualsThatManyDraws) {
  for (const u64 n : {u64{0}, u64{1}, u64{2}, u64{3}, u64{1000},
                      (u64{1} << 20) + 7}) {
    Pcg32 stepped(99, 5);
    for (u64 i = 0; i < n; ++i) (void)stepped.next_u32();
    Pcg32 jumped(99, 5);
    jumped.advance(n);
    EXPECT_EQ(jumped.state(), stepped.state()) << "n=" << n;
    for (i32 i = 0; i < 4; ++i) {
      EXPECT_EQ(jumped.next_u32(), stepped.next_u32()) << "n=" << n;
    }
  }
}

TEST(Pcg32, AdvanceComposes) {
  for (const auto& [a, b] : {std::pair<u64, u64>{0, 5}, {7, 0}, {13, 999},
                             {1u << 16, (1u << 20) + 3}}) {
    Pcg32 twice(4, 2);
    twice.advance(a);
    twice.advance(b);
    Pcg32 once(4, 2);
    once.advance(a + b);
    EXPECT_EQ(twice.state(), once.state()) << a << " + " << b;
  }
}

TEST(Pcg32, AdvanceKeepsTheCachedNormal) {
  Pcg32 a(31, 7);
  Pcg32 b(31, 7);
  (void)a.normal();  // draws a pair, caches its second variate
  (void)b.normal();
  a.advance(12345);
  // The cached variate is served without a draw.
  EXPECT_EQ(a.normal(), b.normal());
  b.advance(12345);
  EXPECT_EQ(a.state(), b.state());
}

}  // namespace
}  // namespace tc
