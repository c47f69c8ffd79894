// Byte identity of the separable / fused kernels against per-pixel
// references.  The references are the straightforward clamped loops (for
// bicubic, bicubic_sample itself); every comparison is exact
// (Image::operator==), since the kernels promise the same arithmetic in the
// same order for every output pixel.

#include <array>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "imaging/pipeline.hpp"

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

}  // namespace
}  // namespace tc::img
