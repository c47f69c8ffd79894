#include "imaging/kernels.hpp"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace tc::img {
namespace {

ImageF32 random_image(i32 w, i32 h, u64 seed) {
  ImageF32 im(w, h);
  Pcg32 rng(seed);
  for (usize i = 0; i < im.size(); ++i) {
    im.data()[i] = static_cast<f32>(rng.uniform(0.0, 1000.0));
  }
  return im;
}

TEST(GaussianKernel, NormalizedAndSymmetric) {
  for (f64 sigma : {0.5, 1.0, 2.0, 4.0}) {
    auto k = gaussian_kernel(sigma);
    ASSERT_EQ(k.size() % 2, 1u) << "sigma=" << sigma;
    f64 sum = std::accumulate(k.begin(), k.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-5);
    for (usize i = 0; i < k.size() / 2; ++i) {
      EXPECT_FLOAT_EQ(k[i], k[k.size() - 1 - i]);
    }
    EXPECT_GT(k[k.size() / 2], k[0]);
  }
}

TEST(GaussianBlur, PreservesConstantImage) {
  ImageF32 im(32, 32, 100.0f);
  ImageF32 out = gaussian_blur(im, 2.0);
  for (usize i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], 100.0f, 1e-2f);
  }
}

TEST(GaussianBlur, SmoothsImpulse) {
  ImageF32 im(33, 33, 0.0f);
  im.at(16, 16) = 1000.0f;
  ImageF32 out = gaussian_blur(im, 1.5);
  EXPECT_LT(out.at(16, 16), 1000.0f);
  EXPECT_GT(out.at(16, 16), out.at(12, 16));
  EXPECT_GT(out.at(15, 16), out.at(10, 16));
  // Mass is preserved (up to border effects, none here).
  f64 sum = 0.0;
  for (usize i = 0; i < out.size(); ++i) sum += out.data()[i];
  EXPECT_NEAR(sum, 1000.0, 1.0);
}

TEST(GaussianBlur, StripeUnionEqualsFullRun) {
  ImageF32 im = random_image(64, 48, 77);
  ImageF32 full(64, 48);
  gaussian_blur_rows(im, 2.0, full, IndexRange{0, 48});
  for (i32 stripes : {2, 3, 4, 7}) {
    ImageF32 striped(64, 48);
    i32 base = 48 / stripes;
    i32 y = 0;
    for (i32 s = 0; s < stripes; ++s) {
      i32 hi = (s == stripes - 1) ? 48 : y + base;
      gaussian_blur_rows(im, 2.0, striped, IndexRange{y, hi});
      y = hi;
    }
    EXPECT_EQ(full, striped) << stripes << " stripes";
  }
}

TEST(GaussianBlur, WorkReportAccumulates) {
  ImageF32 im = random_image(16, 16, 1);
  WorkReport wr;
  (void)gaussian_blur(im, 1.0, &wr);
  EXPECT_GT(wr.pixel_ops, 0u);
  EXPECT_GT(wr.bytes_read, 0u);
  EXPECT_GT(wr.bytes_written, 0u);
}

TEST(Hessian, FlatImageHasZeroHessian) {
  ImageF32 im(16, 16, 42.0f);
  HessianImages h = make_hessian_images(16, 16);
  hessian_rows(im, h, IndexRange{0, 16});
  for (usize i = 0; i < h.xx.size(); ++i) {
    EXPECT_FLOAT_EQ(h.xx.data()[i], 0.0f);
    EXPECT_FLOAT_EQ(h.yy.data()[i], 0.0f);
    EXPECT_FLOAT_EQ(h.xy.data()[i], 0.0f);
  }
}

TEST(Hessian, QuadraticHasConstantSecondDerivative) {
  // f(x, y) = x^2 → f_xx = 2, f_yy = 0, f_xy = 0.
  ImageF32 im(32, 32);
  for (i32 y = 0; y < 32; ++y) {
    for (i32 x = 0; x < 32; ++x) {
      im.at(x, y) = static_cast<f32>(x * x);
    }
  }
  HessianImages h = make_hessian_images(32, 32);
  hessian_rows(im, h, IndexRange{0, 32});
  EXPECT_FLOAT_EQ(h.xx.at(16, 16), 2.0f);
  EXPECT_FLOAT_EQ(h.yy.at(16, 16), 0.0f);
  EXPECT_FLOAT_EQ(h.xy.at(16, 16), 0.0f);
}

TEST(Hessian, MixedTermOnSaddle) {
  // f(x, y) = x*y → f_xy = 1.
  ImageF32 im(32, 32);
  for (i32 y = 0; y < 32; ++y) {
    for (i32 x = 0; x < 32; ++x) {
      im.at(x, y) = static_cast<f32>(x * y);
    }
  }
  HessianImages h = make_hessian_images(32, 32);
  hessian_rows(im, h, IndexRange{10, 20});
  EXPECT_FLOAT_EQ(h.xy.at(16, 15), 1.0f);
}

TEST(Hessian, InvertedRowRangeAccountsNoWork) {
  ImageF32 im = random_image(32, 32, 2);
  HessianImages h = make_hessian_images(32, 32);
  WorkReport wr;
  hessian_rect(im, h, IndexRange{10, 5}, IndexRange{0, 32}, &wr);
  hessian_rect(im, h, IndexRange{0, 32}, IndexRange{20, 4}, &wr);
  EXPECT_EQ(wr.pixel_ops, 0u);
  EXPECT_EQ(wr.bytes_read, 0u);
  EXPECT_EQ(wr.bytes_written, 0u);
}

TEST(Ridgeness, InvertedRowRangeAccountsNoWork) {
  HessianImages h = make_hessian_images(32, 32);
  ImageF32 resp(32, 32);
  WorkReport wr;
  ridgeness_rows(h, resp, IndexRange{10, 5}, &wr);
  EXPECT_EQ(wr.pixel_ops, 0u);
  EXPECT_EQ(wr.bytes_read, 0u);
  EXPECT_EQ(wr.bytes_written, 0u);
}

TEST(Ridgeness, DarkLineGivesPositiveResponse) {
  // A dark vertical line on a bright background: f_xx > 0 across the line.
  ImageF32 im(32, 32, 1000.0f);
  for (i32 y = 0; y < 32; ++y) im.at(16, y) = 0.0f;
  HessianImages h = make_hessian_images(32, 32);
  hessian_rows(im, h, IndexRange{0, 32});
  ImageF32 resp(32, 32);
  ridgeness_rows(h, resp, IndexRange{0, 32});
  EXPECT_GT(resp.at(16, 16), 100.0f);
  EXPECT_NEAR(resp.at(8, 16), 0.0f, 1e-3f);
}

TEST(Ridgeness, BrightLineGivesNoResponse) {
  // A *bright* line has negative second derivative: lambda_max <= 0.
  ImageF32 im(32, 32, 0.0f);
  for (i32 y = 0; y < 32; ++y) im.at(16, y) = 1000.0f;
  HessianImages h = make_hessian_images(32, 32);
  hessian_rows(im, h, IndexRange{0, 32});
  ImageF32 resp(32, 32);
  ridgeness_rows(h, resp, IndexRange{0, 32});
  EXPECT_FLOAT_EQ(resp.at(16, 16), 0.0f);
}

TEST(TemporalDifference, KnownValues) {
  ImageF32 a(2, 2, 10.0f);
  ImageF32 b(2, 2, 4.0f);
  b.at(1, 1) = 25.0f;
  WorkReport wr;
  ImageF32 d = temporal_difference(a, b, &wr);
  EXPECT_FLOAT_EQ(d.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(d.at(1, 1), 15.0f);
  EXPECT_EQ(wr.pixel_ops, 8u);
}

TEST(Bilinear, ExactAtIntegerCoordinates) {
  ImageF32 im = random_image(8, 8, 3);
  for (i32 y = 0; y < 8; ++y) {
    for (i32 x = 0; x < 8; ++x) {
      EXPECT_FLOAT_EQ(bilinear_sample(im, x, y), im.at(x, y));
    }
  }
}

TEST(Bilinear, InterpolatesLinearRamp) {
  ImageF32 im(8, 8);
  for (i32 y = 0; y < 8; ++y) {
    for (i32 x = 0; x < 8; ++x) im.at(x, y) = static_cast<f32>(x);
  }
  EXPECT_NEAR(bilinear_sample(im, 2.5, 3.0), 2.5f, 1e-5f);
  EXPECT_NEAR(bilinear_sample(im, 4.25, 1.7), 4.25f, 1e-5f);
}

TEST(Bicubic, ExactAtIntegerCoordinates) {
  ImageF32 im = random_image(8, 8, 4);
  for (i32 y = 2; y < 6; ++y) {
    for (i32 x = 2; x < 6; ++x) {
      EXPECT_NEAR(bicubic_sample(im, x, y), im.at(x, y), 1e-3f);
    }
  }
}

TEST(Bicubic, ReproducesLinearRampExactly) {
  // Catmull-Rom interpolation is exact for polynomials up to degree 3.
  ImageF32 im(12, 12);
  for (i32 y = 0; y < 12; ++y) {
    for (i32 x = 0; x < 12; ++x) {
      im.at(x, y) = static_cast<f32>(3 * x + 2 * y);
    }
  }
  EXPECT_NEAR(bicubic_sample(im, 5.3, 6.7), 3.0 * 5.3 + 2.0 * 6.7, 1e-3);
}

TEST(ResampleBicubic, IdentityWhenSameSize) {
  ImageF32 im = random_image(16, 16, 5);
  ImageF32 out = resample_bicubic(im, 16, 16, im.full_rect());
  for (i32 y = 4; y < 12; ++y) {
    for (i32 x = 4; x < 12; ++x) {
      EXPECT_NEAR(out.at(x, y), im.at(x, y), 1e-2f);
    }
  }
}

TEST(ResampleBicubic, UpscaleDimensions) {
  ImageF32 im = random_image(8, 8, 6);
  ImageF32 out = resample_bicubic(im, 32, 24, Rect{2, 2, 4, 4});
  EXPECT_EQ(out.width(), 32);
  EXPECT_EQ(out.height(), 24);
}

TEST(TranslateBilinear, IntegerShift) {
  ImageF32 im = random_image(16, 16, 7);
  ImageF32 out = translate_bilinear(im, 2.0, 3.0);
  // out(x, y) samples in(x + dx, y + dy).
  for (i32 y = 0; y < 12; ++y) {
    for (i32 x = 0; x < 13; ++x) {
      EXPECT_FLOAT_EQ(out.at(x, y), im.at(x + 2, y + 3));
    }
  }
}

TEST(TranslateBilinear, ZeroShiftIsIdentity) {
  ImageF32 im = random_image(10, 10, 8);
  ImageF32 out = translate_bilinear(im, 0.0, 0.0);
  EXPECT_EQ(im, out);
}

TEST(TranslateBilinear, RoundTripApproximatelyIdentity) {
  // Smooth image: +d then -d is near-identity away from the borders.
  ImageF32 noise = random_image(24, 24, 9);
  ImageF32 im = gaussian_blur(noise, 3.0);
  ImageF32 fwd = translate_bilinear(im, 0.4, -0.3);
  ImageF32 back = translate_bilinear(fwd, -0.4, 0.3);
  for (i32 y = 4; y < 20; ++y) {
    for (i32 x = 4; x < 20; ++x) {
      EXPECT_NEAR(back.at(x, y), im.at(x, y), 8.0f);
    }
  }
}

class StripeEquivalence : public ::testing::TestWithParam<i32> {};

TEST_P(StripeEquivalence, HessianAndRidgenessRows) {
  const i32 stripes = GetParam();
  ImageF32 im = gaussian_blur(random_image(40, 40, 11), 1.5);
  HessianImages h_full = make_hessian_images(40, 40);
  hessian_rows(im, h_full, IndexRange{0, 40});
  ImageF32 r_full(40, 40);
  ridgeness_rows(h_full, r_full, IndexRange{0, 40});

  HessianImages h_str = make_hessian_images(40, 40);
  ImageF32 r_str(40, 40);
  i32 y = 0;
  for (i32 s = 0; s < stripes; ++s) {
    i32 hi = (s == stripes - 1) ? 40 : y + 40 / stripes;
    hessian_rows(im, h_str, IndexRange{y, hi});
    ridgeness_rows(h_str, r_str, IndexRange{y, hi});
    y = hi;
  }
  EXPECT_EQ(r_full, r_str);
}

INSTANTIATE_TEST_SUITE_P(Stripes, StripeEquivalence,
                         ::testing::Values(2, 3, 4, 5, 8));

}  // namespace
}  // namespace tc::img
