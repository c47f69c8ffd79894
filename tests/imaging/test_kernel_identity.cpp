// Byte identity of the separable / fused kernels against per-pixel
// references.  The references are the straightforward clamped loops (for
// bicubic, bicubic_sample itself); every comparison is exact
// (Image::operator==), since the kernels promise the same arithmetic in the
// same order for every output pixel.

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "app/stentboost.hpp"
#include "common/rng.hpp"
#include "imaging/pipeline.hpp"
#include "imaging/synthetic.hpp"
#include "imaging/synthetic_stamp.hpp"
#include "platform/thread_pool.hpp"

namespace tc::img {
namespace {

ImageF32 random_image(i32 w, i32 h, u64 seed, f64 hi = 1000.0) {
  ImageF32 im(w, h);
  Pcg32 rng(seed);
  for (usize i = 0; i < im.size(); ++i) {
    im.data()[i] = static_cast<f32>(rng.uniform(-0.1 * hi, hi));
  }
  return im;
}

/// Row ranges of `stripes` contiguous bands covering [lo, hi).
std::vector<IndexRange> stripe_split(i32 lo, i32 hi, i32 stripes) {
  std::vector<IndexRange> bands;
  const i32 n = hi - lo;
  for (i32 s = 0; s < stripes; ++s) {
    bands.push_back(IndexRange{lo + n * s / stripes, lo + n * (s + 1) / stripes});
  }
  return bands;
}

void expect_same_work(const WorkReport& a, const WorkReport& b) {
  EXPECT_EQ(a.pixel_ops, b.pixel_ops);
  EXPECT_EQ(a.feature_ops, b.feature_ops);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.input_bytes, b.input_bytes);
  EXPECT_EQ(a.intermediate_bytes, b.intermediate_bytes);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.data_parallel, b.data_parallel);
}

// --- bicubic ----------------------------------------------------------------

/// The per-pixel resampling loop: bicubic_sample at each pixel centre.
ImageF32 reference_resample(const ImageF32& in, i32 out_w, i32 out_h,
                            Rect src) {
  ImageF32 out(out_w, out_h);
  const f64 sx = static_cast<f64>(src.w) / static_cast<f64>(out_w);
  const f64 sy = static_cast<f64>(src.h) / static_cast<f64>(out_h);
  for (i32 y = 0; y < out_h; ++y) {
    for (i32 x = 0; x < out_w; ++x) {
      out.at(x, y) = bicubic_sample(in, src.x + (static_cast<f64>(x) + 0.5) * sx - 0.5,
                                    src.y + (static_cast<f64>(y) + 0.5) * sy - 0.5);
    }
  }
  return out;
}

ImageU16 reference_zoom(const ImageF32& in, i32 out_w, i32 out_h) {
  const ImageF32 f = reference_resample(in, out_w, out_h, in.full_rect());
  ImageU16 out(out_w, out_h);
  for (i32 y = 0; y < out_h; ++y) {
    for (i32 x = 0; x < out_w; ++x) {
      out.at(x, y) =
          static_cast<u16>(std::clamp(f.at(x, y), 0.0f, 65535.0f) + 0.5f);
    }
  }
  return out;
}

struct ResampleCase {
  Rect src;
  i32 out_w;
  i32 out_h;
};

TEST(BicubicIdentity, ResampleMatchesPerPixelReferenceForEveryStripeSplit) {
  const ImageF32 in = random_image(23, 19, 1);
  std::vector<ResampleCase> cases = {
      {Rect{0, 0, 23, 19}, 61, 47},    // up, full frame
      {Rect{0, 0, 23, 19}, 9, 7},      // down
      {Rect{0, 0, 7, 5}, 30, 26},      // top-left corner
      {Rect{16, 0, 7, 6}, 17, 13},     // top-right corner
      {Rect{0, 13, 9, 6}, 25, 11},     // bottom-left corner
      {Rect{14, 12, 9, 7}, 8, 9},      // bottom-right, down
      {Rect{5, 4, 11, 9}, 40, 40},     // interior
      {Rect{-3, -2, 12, 10}, 20, 18},  // reaching off the frame
      {Rect{11, 9, 1, 1}, 6, 5},       // 1-pixel source
  };
  for (i32 w = 1; w <= 9; ++w) {
    cases.push_back({Rect{2, 3, 13, 11}, w, 2 * w + 1});
  }
  for (const ResampleCase& c : cases) {
    const ImageF32 ref = reference_resample(in, c.out_w, c.out_h, c.src);
    EXPECT_EQ(resample_bicubic(in, c.out_w, c.out_h, c.src), ref)
        << c.out_w << "x" << c.out_h;
    for (i32 stripes = 1; stripes <= 7; ++stripes) {
      ImageF32 out(c.out_w, c.out_h, -1.0f);
      for (IndexRange rows : stripe_split(0, c.out_h, stripes)) {
        resample_bicubic_rows(in, out, c.src, rows);
      }
      EXPECT_EQ(out, ref) << c.out_w << "x" << c.out_h << ", " << stripes
                          << " stripes";
    }
  }
}

TEST(BicubicIdentity, ZoomMatchesPerPixelReferenceForEveryStripeSplit) {
  // Values beyond both ends of the u16 range exercise the clamp.
  const ImageF32 big = random_image(17, 13, 2, 80000.0);
  const ImageF32 pixel(1, 1, 1234.5f);
  for (const ImageF32* in : {&big, &pixel}) {
    for (auto [w, h] : {std::pair{64, 52}, std::pair{9, 5}, std::pair{1, 1},
                        std::pair{5, 3}, std::pair{33, 7}}) {
      ZoomParams p;
      p.output_width = w;
      p.output_height = h;
      const ImageU16 ref = reference_zoom(*in, w, h);
      EXPECT_EQ(zoom(*in, p).output, ref) << w << "x" << h;
      for (i32 stripes = 1; stripes <= 7; ++stripes) {
        ImageU16 out(w, h, 7);
        WorkReport work;
        for (IndexRange rows : stripe_split(0, h, stripes)) {
          zoom_rows(*in, p, out, rows, work);
        }
        EXPECT_EQ(out, ref) << w << "x" << h << ", " << stripes << " stripes";
      }
    }
  }
}

TEST(BicubicIdentity, RowsOutsideTheOutputAreClamped) {
  const ImageF32 in = random_image(12, 10, 3);
  const ImageF32 ref = reference_resample(in, 20, 16, in.full_rect());
  ImageF32 out(20, 16, 0.0f);
  EXPECT_EQ(bicubic_rows(in, in.full_rect(), out, IndexRange{-5, 9}), 9);
  EXPECT_EQ(bicubic_rows(in, in.full_rect(), out, IndexRange{9, 40}), 7);
  EXPECT_EQ(bicubic_rows(in, in.full_rect(), out, IndexRange{12, 3}), 0);
  EXPECT_EQ(out, ref);
}

// --- Gaussian blur ----------------------------------------------------------

/// The clamped two-pass loop: every tap clamped to the image, the vertical
/// pass column by column over a band-sized temporary.
void reference_blur_rect(const ImageF32& in, f64 sigma, ImageF32& out,
                         IndexRange rows, IndexRange cols) {
  const std::vector<f32> k = gaussian_kernel(sigma);
  const i32 radius = static_cast<i32>(k.size() / 2);
  const i32 w = in.width();
  const i32 h = in.height();
  const i32 y0 = std::clamp(rows.lo, 0, h);
  const i32 y1 = std::clamp(rows.hi, 0, h);
  const i32 x0 = std::clamp(cols.lo, 0, w);
  const i32 x1 = std::clamp(cols.hi, 0, w);
  if (y1 <= y0 || x1 <= x0) return;
  const i32 ty0 = std::max(0, y0 - radius);
  const i32 ty1 = std::min(h, y1 + radius);
  ImageF32 tmp(x1 - x0, ty1 - ty0);
  for (i32 y = ty0; y < ty1; ++y) {
    for (i32 x = x0; x < x1; ++x) {
      f32 acc = 0.0f;
      for (i32 t = -radius; t <= radius; ++t) {
        acc += in.at(std::clamp(x + t, 0, w - 1), y) *
               k[static_cast<usize>(t + radius)];
      }
      tmp.at(x - x0, y - ty0) = acc;
    }
  }
  for (i32 y = y0; y < y1; ++y) {
    for (i32 x = x0; x < x1; ++x) {
      f32 acc = 0.0f;
      for (i32 t = -radius; t <= radius; ++t) {
        const i32 yi = std::clamp(y + t, ty0, ty1 - 1);
        acc += tmp.at(x - x0, yi - ty0) * k[static_cast<usize>(t + radius)];
      }
      out.at(x, y) = acc;
    }
  }
}

TEST(BlurIdentity, MatchesClampedLoopForEverySigmaShapeAndRect) {
  for (f64 sigma : {0.7, 0.9, 1.5, 2.0, 2.2, 4.0}) {
    // 5 and 3 columns or rows are narrower than the kernel (empty interior).
    for (auto [w, h] : {std::pair{40, 33}, std::pair{5, 30}, std::pair{30, 3},
                        std::pair{3, 5}, std::pair{1, 1}}) {
      const ImageF32 in = random_image(w, h, 10 + static_cast<u64>(w));
      const std::vector<std::pair<IndexRange, IndexRange>> rects = {
          {{0, h}, {0, w}},                 // full
          {{0, h / 2 + 1}, {0, w / 2 + 1}}, // top-left edges
          {{h / 2, h}, {w / 2, w}},         // bottom-right edges
          {{h / 3, h / 3 + 2}, {w / 4, w - w / 4}},  // interior band
          {{-4, h + 4}, {-3, w + 3}},       // beyond every edge
      };
      for (const auto& [rows, cols] : rects) {
        ImageF32 ref(w, h, -7.0f);
        reference_blur_rect(in, sigma, ref, rows, cols);
        ImageF32 out(w, h, -7.0f);
        gaussian_blur_rect(in, sigma, out, rows, cols);
        EXPECT_EQ(out, ref) << "sigma " << sigma << ", " << w << "x" << h
                            << ", rows " << rows.lo << ".." << rows.hi;
      }
      ImageF32 ref(w, h);
      reference_blur_rect(in, sigma, ref, IndexRange{0, h}, IndexRange{0, w});
      EXPECT_EQ(gaussian_blur(in, sigma), ref);
    }
  }
}

TEST(BlurIdentity, BandOutputHoldsTheSameRows) {
  const ImageF32 in = random_image(37, 41, 5);
  ImageF32 ref(37, 41);
  reference_blur_rect(in, 2.0, ref, IndexRange{0, 41}, IndexRange{0, 37});
  // Rows [12, 20) into a band that holds frame rows [10, 22).
  ImageF32 band(37, 12, 0.0f);
  gaussian_blur_rect(in, 2.0, band, IndexRange{12, 20}, IndexRange{3, 30},
                     nullptr, 10);
  for (i32 y = 12; y < 20; ++y) {
    for (i32 x = 3; x < 30; ++x) {
      ASSERT_EQ(band.at(x, y - 10), ref.at(x, y)) << x << "," << y;
    }
  }
}

// --- Hessian ----------------------------------------------------------------

void reference_hessian_rect(const ImageF32& s, HessianImages& h,
                            IndexRange rows, IndexRange cols) {
  const i32 y0 = std::clamp(rows.lo, 0, s.height());
  const i32 y1 = std::clamp(rows.hi, 0, s.height());
  const i32 x0 = std::clamp(cols.lo, 0, s.width());
  const i32 x1 = std::clamp(cols.hi, 0, s.width());
  for (i32 y = y0; y < y1; ++y) {
    for (i32 x = x0; x < x1; ++x) {
      const f32 c = s.at_clamped(x, y);
      h.xx.at(x, y) = s.at_clamped(x + 1, y) - 2.0f * c + s.at_clamped(x - 1, y);
      h.yy.at(x, y) = s.at_clamped(x, y + 1) - 2.0f * c + s.at_clamped(x, y - 1);
      h.xy.at(x, y) = 0.25f * (s.at_clamped(x + 1, y + 1) -
                               s.at_clamped(x + 1, y - 1) -
                               s.at_clamped(x - 1, y + 1) +
                               s.at_clamped(x - 1, y - 1));
    }
  }
}

TEST(HessianIdentity, MatchesClampedLoopInTheInteriorAndAtTheBorder) {
  for (auto [w, h] : {std::pair{17, 9}, std::pair{2, 3}, std::pair{1, 1},
                      std::pair{1, 6}, std::pair{6, 1}}) {
    const ImageF32 in = random_image(w, h, 20 + static_cast<u64>(w * h));
    for (const auto& [rows, cols] :
         std::vector<std::pair<IndexRange, IndexRange>>{
             {{0, h}, {0, w}},
             {{1, h - 1}, {1, w - 1}},
             {{0, 1}, {w - 1, w}},
             {{h - 1, h}, {0, 1}},
             {{-2, h + 2}, {-2, w + 2}}}) {
      HessianImages ref = make_hessian_images(w, h);
      HessianImages out = make_hessian_images(w, h);
      reference_hessian_rect(in, ref, rows, cols);
      hessian_rect(in, out, rows, cols);
      EXPECT_EQ(out.xx, ref.xx) << w << "x" << h;
      EXPECT_EQ(out.xy, ref.xy) << w << "x" << h;
      EXPECT_EQ(out.yy, ref.yy) << w << "x" << h;
    }
  }
}

// --- ENH --------------------------------------------------------------------

/// bilinear_sample's arithmetic with every read clamped and std::floor.
f32 reference_bilinear(const ImageF32& in, f64 x, f64 y) {
  const i32 x0 = static_cast<i32>(std::floor(x));
  const i32 y0 = static_cast<i32>(std::floor(y));
  const f32 fx = static_cast<f32>(x - x0);
  const f32 fy = static_cast<f32>(y - y0);
  const f32 top = in.at_clamped(x0, y0) * (1.0f - fx) +
                  in.at_clamped(x0 + 1, y0) * fx;
  const f32 bot = in.at_clamped(x0, y0 + 1) * (1.0f - fx) +
                  in.at_clamped(x0 + 1, y0 + 1) * fx;
  return top * (1.0f - fy) + bot * fy;
}

/// Warp the whole frame into a copy, then blend it into a new accumulator.
EnhanceResult reference_enhance(const ImageF32& frame, Rect roi,
                                const ImageF32& acc, const Couple& cur,
                                const Couple& ref, f32 g) {
  const f64 phi = std::atan2(ref.b.y - ref.a.y, ref.b.x - ref.a.x) -
                  std::atan2(cur.b.y - cur.a.y, cur.b.x - cur.a.x);
  const Point2f c_cur{0.5 * (cur.a.x + cur.b.x), 0.5 * (cur.a.y + cur.b.y)};
  const Point2f c_ref{0.5 * (ref.a.x + ref.b.x), 0.5 * (ref.a.y + ref.b.y)};
  const f64 ca = std::cos(-phi);
  const f64 sa = std::sin(-phi);
  ImageF32 warped(frame.width(), frame.height());
  for (i32 y = 0; y < frame.height(); ++y) {
    for (i32 x = 0; x < frame.width(); ++x) {
      const f64 rx = static_cast<f64>(x) - c_ref.x;
      const f64 ry = static_cast<f64>(y) - c_ref.y;
      warped.at(x, y) = reference_bilinear(frame, c_cur.x + ca * rx - sa * ry,
                                           c_cur.y + sa * rx + ca * ry);
    }
  }
  EnhanceResult r;
  const u64 px = frame.size();
  r.work.pixel_ops += px * 22;
  r.work.bytes_read += px * 16;
  r.work.bytes_written += px * 4;
  if (acc.width() != frame.width() || acc.height() != frame.height()) {
    r.accumulator = std::move(warped);
    r.work.bytes_written += px * 4;
  } else {
    r.accumulator = ImageF32(frame.width(), frame.height());
    for (usize i = 0; i < px; ++i) {
      r.accumulator.data()[i] =
          (1.0f - g) * acc.data()[i] + g * warped.data()[i];
    }
    r.work.pixel_ops += px * 3;
    r.work.bytes_read += px * 8;
    r.work.bytes_written += px * 4;
    r.work.intermediate_bytes += px * 4;
  }
  r.enhanced_roi = r.accumulator.crop(roi);
  r.work.bytes_read += r.enhanced_roi.bytes();
  r.work.bytes_written += r.enhanced_roi.bytes();
  r.work.input_bytes += px * 2;
  r.work.intermediate_bytes += r.accumulator.bytes();
  r.work.output_bytes += r.enhanced_roi.bytes();
  r.work.data_parallel = true;
  return r;
}

/// A couple of separation `d` centred on (cx, cy) at angle `a`.
Couple couple_at(f64 cx, f64 cy, f64 a, f64 d = 20.0) {
  const f64 hx = 0.5 * d * std::cos(a);
  const f64 hy = 0.5 * d * std::sin(a);
  return Couple{Point2f{cx - hx, cy - hy}, Point2f{cx + hx, cy + hy}, 1.0};
}

/// Runs the bands of [0, rows) in reverse order, so a band never sees a
/// neighbour's result first.
void reversed_bands(i32 rows, const std::function<void(IndexRange)>& body) {
  const std::vector<IndexRange> bands = stripe_split(0, rows, 5);
  for (auto it = bands.rbegin(); it != bands.rend(); ++it) body(*it);
}

TEST(EnhanceIdentity, FusedWarpAndBlendMatchesWarpThenBlend) {
  const i32 w = 45;
  const i32 h = 38;
  const Couple ref = couple_at(22.0, 19.0, 0.1);
  // Restart, blends with rotations up to +-0.3 rad and shifts that move
  // samples off the frame, then a wrong-size accumulator (restart again).
  const std::vector<Couple> currents = {
      couple_at(22.0, 19.0, 0.1),          couple_at(25.3, 17.6, 0.4),
      couple_at(18.2, 21.9, -0.2),         couple_at(40.7, -6.3, 0.1),
      couple_at(-9.5, 30.1, 0.35),         couple_at(22.5, 19.25, -0.1999),
  };
  const Rect roi{5, 4, 30, 25};
  ImageF32 acc;
  ImageF32 acc_banded;
  ImageF32 acc_ref;
  for (usize t = 0; t < currents.size() + 1; ++t) {
    const ImageF32 frame = random_image(w, h, 40 + t);
    const Couple& cur = currents[t % currents.size()];
    if (t == currents.size()) {
      acc = ImageF32(w + 3, h);
      acc_banded = ImageF32(w, h - 1);
      acc_ref = ImageF32(w - 2, h);
    }
    const EnhanceParams params;
    EnhanceResult expected = reference_enhance(frame, roi, acc_ref, cur, ref,
                                               params.integration_gain);
    EnhanceResult got = enhance(frame, roi, std::move(acc), cur, ref, params);
    EnhanceResult banded = enhance(frame, roi, std::move(acc_banded), cur, ref,
                                   params, reversed_bands);
    EXPECT_EQ(got.accumulator, expected.accumulator) << "frame " << t;
    EXPECT_EQ(got.enhanced_roi, expected.enhanced_roi) << "frame " << t;
    EXPECT_EQ(banded.accumulator, expected.accumulator) << "frame " << t;
    expect_same_work(got.work, expected.work);
    expect_same_work(banded.work, expected.work);
    acc = std::move(got.accumulator);
    acc_banded = std::move(banded.accumulator);
    acc_ref = std::move(expected.accumulator);
  }
}

// --- RDG band scratch ---------------------------------------------------------

/// A diagonal dark line, plus a horizontal segment on rows 30-31 that ends
/// at column 21: a ridge pixel there samples left of column 20, where a
/// narrower ROI must read zeros.
ImageF32 ridge_frame(i32 w, i32 h, u64 seed) {
  ImageF32 im(w, h, 1000.0f);
  for (i32 y = 0; y < h; ++y) {
    const i32 x = (w / 3 + y / 2) % w;
    im.at(x, y) -= 500.0f;
    if (x > 0) im.at(x - 1, y) -= 300.0f;
  }
  for (i32 x = 8; x < 22; ++x) {
    im.at(x, 30) -= 500.0f;
    im.at(x, 31) -= 300.0f;
  }
  Pcg32 rng(seed);
  for (usize i = 0; i < im.size(); ++i) {
    im.data()[i] += static_cast<f32>(rng.normal(0.0, 40.0));
  }
  return im;
}

struct RidgeOut {
  ImageF32 response;
  ImageF32 blobness;
  u64 dominant = 0;
};

/// Striped ridge detection of `roi`, one band per stripe, each with the
/// given scratch (a fresh one when null).
RidgeOut striped_ridge(const ImageF32& im, Rect roi, i32 stripes,
                       RidgeScratch* scratch) {
  const RidgeParams params{2.0, 60.0f};
  RidgeOut out{ImageF32(im.width(), im.height(), 0.0f),
               ImageF32(im.width(), im.height(), 0.0f), 0};
  const Rect r = clamp_rect(roi, im.width(), im.height());
  for (IndexRange rows : stripe_split(r.y, r.y + r.h, stripes)) {
    WorkReport work;
    RidgeScratch fresh;
    ridge_detect_rows(im, r, params, out.response, out.blobness, rows,
                      out.dominant, work,
                      scratch != nullptr ? scratch : &fresh);
  }
  return out;
}

TEST(RidgeBandScratch, StripesMatchSerialForRoisAtEveryEdge) {
  const ImageF32 im = ridge_frame(72, 64, 7);
  const RidgeParams params{2.0, 60.0f};
  for (Rect roi : {Rect{0, 0, 72, 64}, Rect{10, 0, 40, 30},
                   Rect{12, 34, 40, 30}, Rect{0, 10, 30, 40},
                   Rect{42, 12, 30, 40}, Rect{20, 20, 9, 5}}) {
    const RidgeResult serial = ridge_detect(im, roi, params);
    for (i32 stripes = 1; stripes <= 7; ++stripes) {
      const RidgeOut out = striped_ridge(im, roi, stripes, nullptr);
      EXPECT_EQ(out.response, serial.response)
          << roi.x << "," << roi.y << ": " << stripes << " stripes";
      EXPECT_EQ(out.blobness, serial.blobness)
          << roi.x << "," << roi.y << ": " << stripes << " stripes";
      EXPECT_EQ(out.dominant, serial.dominant_pixels);
    }
  }
}

TEST(RidgeBandScratch, ReusedScratchAcrossShrinkingAndGrowingRoisMatchesFresh) {
  const ImageF32 im = ridge_frame(72, 64, 8);
  RidgeScratch scratch;
  // Large, then narrower over the same rows (same band, so the planes keep
  // the wider ROI's pixels beside the new one), smaller and moved, then
  // large again.
  for (i32 stripes : {1, 3}) {
    for (Rect roi : {Rect{0, 0, 72, 64}, Rect{20, 0, 30, 64},
                     Rect{30, 40, 20, 12}, Rect{5, 3, 60, 50},
                     Rect{50, 0, 22, 9}, Rect{0, 0, 72, 64}}) {
      const RidgeOut fresh = striped_ridge(im, roi, stripes, nullptr);
      const RidgeOut reused = striped_ridge(im, roi, stripes, &scratch);
      EXPECT_EQ(reused.response, fresh.response) << roi.x << "," << roi.y;
      EXPECT_EQ(reused.blobness, fresh.blobness) << roi.x << "," << roi.y;
      EXPECT_EQ(reused.dominant, fresh.dominant);
    }
  }
}

TEST(RidgeBandScratch, PlanesCoverTheBandNotTheFrame) {
  const ImageF32 im = ridge_frame(72, 64, 9);
  ImageF32 response(72, 64, 0.0f);
  ImageF32 blobness(72, 64, 0.0f);
  u64 dominant = 0;
  WorkReport work;
  RidgeScratch scratch;
  ridge_detect_rows(im, im.full_rect(), RidgeParams{}, response, blobness,
                    IndexRange{20, 30}, dominant, work, &scratch);
  // Rows [20, 30) plus the 4-row halo on each side, full width.
  for (const ImageF32* plane :
       {&scratch.smooth, &scratch.resp_local, &scratch.blob_local,
        &scratch.hess.xx, &scratch.hess.xy, &scratch.hess.yy}) {
    EXPECT_EQ(plane->width(), 72);
    EXPECT_EQ(plane->height(), 18);
  }
  // A band that is the whole frame is frame-sized.
  ridge_detect_rows(im, im.full_rect(), RidgeParams{}, response, blobness,
                    IndexRange{0, 64}, dominant, work, &scratch);
  EXPECT_EQ(scratch.smooth.height(), 64);
}

TEST(RidgeBandScratch, EnsureForSizesExactlyTheCallsBand) {
  // A caller that sizes the scratch with ensure_for (on its own thread)
  // leaves ridge_detect_rows nothing to reshape or reallocate.
  const ImageF32 im = ridge_frame(72, 64, 10);
  for (Rect roi : {Rect{0, 0, 72, 64}, Rect{12, 34, 40, 30},
                   Rect{20, 20, 9, 5}}) {
    const Rect r = clamp_rect(roi, im.width(), im.height());
    for (i32 stripes = 1; stripes <= 5; ++stripes) {
      for (IndexRange rows : stripe_split(r.y, r.y + r.h, stripes)) {
        RidgeScratch scratch;
        scratch.ensure_for(im, r, rows);
        const std::array<const ImageF32*, 6> planes = {
            &scratch.smooth,  &scratch.resp_local, &scratch.blob_local,
            &scratch.hess.xx, &scratch.hess.xy,    &scratch.hess.yy};
        std::array<const f32*, 6> data{};
        std::array<i32, 6> height{};
        for (usize i = 0; i < planes.size(); ++i) {
          data[i] = planes[i]->data();
          height[i] = planes[i]->height();
        }
        ImageF32 response(72, 64, 0.0f);
        ImageF32 blobness(72, 64, 0.0f);
        u64 dominant = 0;
        WorkReport work;
        ridge_detect_rows(im, r, RidgeParams{}, response, blobness, rows,
                          dominant, work, &scratch);
        for (usize i = 0; i < planes.size(); ++i) {
          EXPECT_EQ(planes[i]->data(), data[i]) << "plane " << i;
          EXPECT_EQ(planes[i]->height(), height[i]) << "plane " << i;
        }
      }
    }
  }
}


// --- synthetic camera -------------------------------------------------------

constexpr f64 kPi = 3.14159265358979323846;

void reference_stamp_line(ImageF32& opacity, Point2f a, Point2f b,
                          f64 half_width, f64 depth) {
  f64 dx = b.x - a.x;
  f64 dy = b.y - a.y;
  f64 len = std::sqrt(dx * dx + dy * dy);
  if (len < 1e-9) return;
  const i32 steps = static_cast<i32>(len / 0.7) + 1;
  const i32 reach = static_cast<i32>(std::ceil(3.0 * half_width));
  for (i32 s = 0; s <= steps; ++s) {
    f64 frac = static_cast<f64>(s) / static_cast<f64>(steps);
    f64 px = a.x + frac * dx;
    f64 py = a.y + frac * dy;
    i32 cx = narrow<i32>(std::lround(px));
    i32 cy = narrow<i32>(std::lround(py));
    for (i32 oy = -reach; oy <= reach; ++oy) {
      for (i32 ox = -reach; ox <= reach; ++ox) {
        i32 x = cx + ox;
        i32 y = cy + oy;
        if (!opacity.in_bounds(x, y)) continue;
        f64 rx = static_cast<f64>(x) - px;
        f64 ry = static_cast<f64>(y) - py;
        f64 t_par = (rx * dx + ry * dy) / len;
        f64 perp2 = rx * rx + ry * ry - t_par * t_par;
        if (perp2 < 0.0) perp2 = 0.0;
        f64 g = std::exp(-0.5 * perp2 / (half_width * half_width));
        f32& o = opacity.at(x, y);
        o = std::max(o, static_cast<f32>(depth * g));
      }
    }
  }
}

void reference_stamp_disk(ImageF32& opacity, Point2f c, f64 radius,
                          f64 depth) {
  const i32 reach = static_cast<i32>(std::ceil(radius + 2.0));
  i32 cx = narrow<i32>(std::lround(c.x));
  i32 cy = narrow<i32>(std::lround(c.y));
  for (i32 oy = -reach; oy <= reach; ++oy) {
    for (i32 ox = -reach; ox <= reach; ++ox) {
      i32 x = cx + ox;
      i32 y = cy + oy;
      if (!opacity.in_bounds(x, y)) continue;
      f64 rx = static_cast<f64>(x) - c.x;
      f64 ry = static_cast<f64>(y) - c.y;
      f64 d = std::sqrt(rx * rx + ry * ry);
      f64 edge = 1.0 / (1.0 + std::exp((d - radius) / 0.6));
      f32& o = opacity.at(x, y);
      o = std::max(o, static_cast<f32>(depth * edge));
    }
  }
}

/// The frame's noise stream (as AngioSequence seeds it).
Pcg32 reference_noise(const SequenceParams& p, i32 t) {
  return Pcg32(p.seed ^ 0xABCDEF1234567890ULL, static_cast<u64>(t));
}

/// The per-pixel render: stamp the whole scene, then one loop over every
/// pixel evaluating the background and drawing the frame's noise in order.
ImageU16 reference_render(const AngioSequence& seq, i32 t) {
  const SequenceParams& p = seq.params();
  const i32 w = p.width;
  const i32 h = p.height;
  FrameTruth tr = seq.truth(t);
  Point2f center = seq.stent_center(t);
  f64 offset_x = center.x - 0.5 * w;
  f64 offset_y = center.y - 0.45 * h;

  ImageF32 opacity(w, h, 0.0f);
  f64 vessel_depth = tr.contrast_level * p.vessel_contrast_peak;
  if (vessel_depth > 1e-3) {
    for (const AngioSequence::Vessel& v : seq.vessels()) {
      for (usize i = 0; i + 1 < v.points.size(); ++i) {
        Point2f a{v.points[i].x + offset_x, v.points[i].y + offset_y};
        Point2f b{v.points[i + 1].x + offset_x, v.points[i + 1].y + offset_y};
        reference_stamp_line(opacity, a, b, v.half_width, vessel_depth);
      }
    }
  }
  if (tr.markers_visible) {
    reference_stamp_line(opacity, tr.marker_a, tr.marker_b, 1.1, 0.22);
    reference_stamp_disk(opacity, tr.marker_a, p.marker_radius_px,
                         p.marker_depth);
    reference_stamp_disk(opacity, tr.marker_b, p.marker_radius_px,
                         p.marker_depth);
  }

  ImageU16 out(w, h);
  Pcg32 noise = reference_noise(p, t);
  const f64 dose = p.dose_photons;
  for (i32 y = 0; y < h; ++y) {
    f64 fy = static_cast<f64>(y) / h;
    for (i32 x = 0; x < w; ++x) {
      f64 fx = static_cast<f64>(x) / w;
      f64 vignette = 1.0 - 0.35 * ((fx - 0.5) * (fx - 0.5) +
                                   (fy - 0.5) * (fy - 0.5));
      f64 ribs = 0.06 * std::sin(9.0 * fy * kPi + 1.3) +
                 0.04 * std::sin(5.0 * fx * kPi);
      f64 background = std::clamp(vignette + ribs, 0.05, 1.0);
      f64 transmission =
          background * (1.0 - static_cast<f64>(opacity.at(x, y)));
      f64 lambda = dose * std::clamp(transmission, 0.01, 1.0);
      f64 photons = lambda + std::sqrt(lambda) * noise.normal();
      if (photons < 0.0) photons = 0.0;
      f64 value = photons * (40000.0 / dose);
      out.at(x, y) = static_cast<u16>(std::clamp(value, 0.0, 65535.0));
    }
  }
  return out;
}

/// Runs the bands of an even `stripes`-way split on the calling thread,
/// first to last or last to first.
RowBandRunner split_runner(i32 stripes, bool reversed) {
  return [stripes, reversed](i32 rows,
                             const std::function<void(IndexRange)>& body) {
    std::vector<IndexRange> bands = stripe_split(0, rows, stripes);
    if (reversed) std::reverse(bands.begin(), bands.end());
    for (const IndexRange& band : bands) body(band);
  };
}

SequenceParams camera(i32 w, i32 h, u64 seed) {
  SequenceParams p;
  p.width = w;
  p.height = h;
  p.seed = seed;
  return p;
}

/// Frames before the bolus, in it, and the first with the markers hidden.
std::vector<i32> camera_frames(const AngioSequence& seq) {
  std::vector<i32> frames{5, 60};
  for (i32 t = 0; t < seq.frames(); ++t) {
    if (!seq.truth(t).markers_visible) {
      frames.push_back(t);
      break;
    }
  }
  EXPECT_EQ(frames.size(), 3u) << "no marker-dropout frame in the sequence";
  return frames;
}

TEST(RenderIdentity, MatchesPerPixelReferenceForEverySizeFrameAndSplit) {
  // 63 x 65: odd width, so bands start in the middle of a noise pair.
  for (const auto& [w, h] : {std::pair{64, 64}, std::pair{63, 65},
                             std::pair{256, 256}}) {
    const AngioSequence seq(camera(w, h, 11));
    for (const i32 t : camera_frames(seq)) {
      const ImageU16 ref = reference_render(seq, t);
      EXPECT_TRUE(seq.render(t) == ref) << w << "x" << h << " t=" << t;
      for (i32 stripes = 1; stripes <= 7; ++stripes) {
        for (const bool reversed : {false, true}) {
          EXPECT_TRUE(seq.render(t, split_runner(stripes, reversed)) == ref)
              << w << "x" << h << " t=" << t << " stripes=" << stripes
              << (reversed ? " reversed" : "");
        }
      }
    }
  }
}

TEST(RenderIdentity, MatchesPerPixelReferenceAtThePaperFormat) {
  const AngioSequence seq(camera(1024, 1024, 1));
  for (const i32 t : camera_frames(seq)) {
    const ImageU16 ref = reference_render(seq, t);
    EXPECT_TRUE(seq.render(t) == ref) << "t=" << t;
    EXPECT_TRUE(seq.render(t, split_runner(4, true)) == ref) << "t=" << t;
    EXPECT_TRUE(seq.render(t, split_runner(7, false)) == ref) << "t=" << t;
  }
}

/// Frames of a 300-frame or longer bolus scene: the first the vessel tree
/// is stamped on (depth about 3.3e-3), the plateau, the washout's start,
/// the last above the 1e-3 cutoff, and the first with the markers hidden.
std::vector<i32> bolus_frames(const AngioSequence& seq) {
  std::vector<i32> frames{31, 60, 150, 292};
  for (i32 t = 0; t < seq.frames(); ++t) {
    if (!seq.truth(t).markers_visible) {
      frames.push_back(t);
      break;
    }
  }
  EXPECT_EQ(frames.size(), 5u) << "no marker-dropout frame in the sequence";
  EXPECT_GT(seq.truth(31).contrast_level * seq.params().vessel_contrast_peak,
            1e-3);
  EXPECT_EQ(seq.truth(30).contrast_level, 0.0);
  EXPECT_GT(seq.truth(292).contrast_level * seq.params().vessel_contrast_peak,
            1e-3);
  EXPECT_LT(seq.truth(293).contrast_level * seq.params().vessel_contrast_peak,
            1e-3);
  return frames;
}

/// Renders on `pool` in one band per thread.
RowBandRunner pool_runner(plat::ThreadPool& pool) {
  return [&pool](i32 rows, const std::function<void(IndexRange)>& body) {
    pool.parallel_ranges(rows, static_cast<i32>(pool.thread_count()),
                         [&body](i32, IndexRange band) { body(band); });
  };
}

TEST(RenderIdentity, MatchesPerPixelReferenceOnTheBenchmarkScenes) {
  // e2ebench's scenes: fleet_256's round-0 streams at seed 1 (the widest
  // vessel reach and vessels clipped at every border), then roi_1024's.
  plat::ThreadPool pool(4);
  const RowBandRunner four_bands = pool_runner(pool);
  std::vector<app::StentBoostConfig> scenes;
  for (u64 s = 65536; s <= 65539; ++s) {
    scenes.push_back(app::StentBoostConfig::make(256, 256, 300, s));
  }
  scenes.push_back(app::StentBoostConfig::make(1024, 1024, 400, 1));
  // With glibc's exp, one pixel of each of these frames fails the stamp
  // guard and takes the fallback: the only 2 of 74 M guarded pixels that
  // did in five 256² streams of 300 frames and two 1024² scenes of 200.
  const std::vector<std::pair<u64, i32>> guard_fallback_frames{{65536, 253},
                                                               {65539, 171}};
  for (const app::StentBoostConfig& c : scenes) {
    const AngioSequence seq(c.sequence);
    std::vector<i32> frames = bolus_frames(seq);
    for (const auto& [seed, t] : guard_fallback_frames) {
      if (c.sequence.width == 256 && c.sequence.seed == seed) {
        frames.push_back(t);
      }
    }
    for (const i32 t : frames) {
      const ImageU16 ref = reference_render(seq, t);
      EXPECT_TRUE(seq.render(t) == ref)
          << c.sequence.width << "² seed " << c.sequence.seed << " t=" << t;
      EXPECT_TRUE(seq.render(t, four_bands) == ref)
          << c.sequence.width << "² seed " << c.sequence.seed << " t=" << t
          << " on 4 bands";
    }
  }
}

TEST(RenderIdentity, StampGuardFallsBackBelowAnF32RoundingMidpoint) {
  // A horizontal segment through pixel centres, 16 px long: every step's
  // t_par is rx exactly, so perp2 == 0 and g == 1 on row 5.  A depth one
  // ulp below the midpoint of two f32 values rounds down, but g * kGuard
  // rounds up: the guard must evaluate every step there.
  const f32 lo = 0.3f;
  const f64 midpoint =
      (static_cast<f64>(lo) + static_cast<f64>(std::nextafter(lo, 1.0f))) / 2;
  const f64 below_midpoint = std::nextafter(midpoint, 0.0);
  ASSERT_EQ(static_cast<f32>(below_midpoint), lo);
  const Point2f a{4.0, 5.0};
  const Point2f b{20.0, 5.0};
  const f64 half_width = 1.0;  // reach 3: columns 1..23 of row 5

  std::vector<stamp::Segment> segments{stamp::make_segment(a, b, half_width)};
  std::vector<stamp::Step> steps;
  stamp::add_steps(segments[0], steps);
  for (const f64 depth : {below_midpoint, 0.3}) {
    const stamp::Group group{segments, depth};
    ImageF32 ref(32, 11, 0.0f);
    reference_stamp_line(ref, a, b, half_width, depth);
    for (i32 y = 0; y < ref.height(); ++y) {
      std::vector<f32> row(32, 0.0f);
      const usize fallbacks = stamp::stamp_row(group, steps, y, 0, row);
      if (y == 5) {
        EXPECT_EQ(fallbacks, depth == 0.3 ? 0u : 23u) << "depth " << depth;
      }
      for (i32 x = 0; x < ref.width(); ++x) {
        EXPECT_EQ(row[static_cast<usize>(x)], ref.at(x, y))
            << "depth " << depth << " at (" << x << ", " << y << ")";
      }
    }
  }
}

TEST(RenderIdentity, RejectedNoiseDrawMatchesForEverySplit) {
  // Frame 76 of this sequence draws a raw 0 as a pair's first value (about
  // once in 2^32 draws), which Box-Muller rejects: every later pixel's
  // noise shifts by one draw, and bands that started from their jump-ahead
  // offsets past it are shaded again.
  const SequenceParams p = camera(128, 128, 443);
  const i32 t = 76;
  Pcg32 raw = reference_noise(p, t);
  i64 rejected_pair = -1;
  for (i64 pair = 0; pair < i64{128} * 128 / 2; ++pair) {
    const u32 u1 = raw.next_u32();
    (void)raw.next_u32();
    if (u1 == 0) {
      rejected_pair = pair;
      break;
    }
  }
  ASSERT_EQ(rejected_pair * 2, 8492) << "the forced rejection moved";

  const AngioSequence seq(p);
  const ImageU16 ref = reference_render(seq, t);
  EXPECT_TRUE(seq.render(t) == ref);
  for (i32 stripes = 1; stripes <= 7; ++stripes) {
    for (const bool reversed : {false, true}) {
      EXPECT_TRUE(seq.render(t, split_runner(stripes, reversed)) == ref)
          << "stripes=" << stripes << (reversed ? " reversed" : "");
    }
  }
}

}  // namespace
}  // namespace tc::img
