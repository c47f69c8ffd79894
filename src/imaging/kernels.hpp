// Low-level pixel kernels shared by the pipeline tasks.
//
// Every kernel exists in a row-range form so stripe (data-parallel)
// partitioning can compute disjoint output row bands that are bit-identical
// to a serial run: each band reads whatever input halo it needs from the
// full input image.  All kernels optionally accumulate a WorkReport, priced
// from dimensions only.
//
// The separable kernels run whole-row inner loops with no clamps: border
// columns take a clamped path of their own, and every output pixel is
// computed with the same operations in the same order as the per-pixel
// references (bicubic_sample, bilinear_sample), so results are
// byte-identical to them (tests/imaging/test_kernel_identity.cpp).
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "imaging/image.hpp"
#include "imaging/work_report.hpp"

namespace tc::img {

/// Normalized odd-length 1-D Gaussian kernel with radius ceil(3*sigma).
[[nodiscard]] std::vector<f32> gaussian_kernel(f64 sigma);

/// Separable Gaussian blur of the full image.
[[nodiscard]] ImageF32 gaussian_blur(const ImageF32& in, f64 sigma,
                                     WorkReport* wr = nullptr);

/// Separable Gaussian blur producing only output rows [rows.lo, rows.hi).
/// `out` must already have the dimensions of `in`.
void gaussian_blur_rows(const ImageF32& in, f64 sigma, ImageF32& out,
                        IndexRange rows, WorkReport* wr = nullptr);

/// As gaussian_blur_rows, but restricted to output columns
/// [cols.lo, cols.hi) as well — ROI processing only pays for ROI columns.
/// `out` has the width of `in` and holds result rows [out_row0, out_row0 +
/// out.height()), so a stripe may write into a band-sized image; it must not
/// alias `in`.
void gaussian_blur_rect(const ImageF32& in, f64 sigma, ImageF32& out,
                        IndexRange rows, IndexRange cols,
                        WorkReport* wr = nullptr, i32 out_row0 = 0);

/// Second-derivative (Hessian) images computed by central differences on a
/// pre-smoothed image.
struct HessianImages {
  ImageF32 xx;
  ImageF32 xy;
  ImageF32 yy;
};

[[nodiscard]] HessianImages make_hessian_images(i32 width, i32 height);

/// Fill h.xx/h.xy/h.yy for rows [rows.lo, rows.hi).
void hessian_rows(const ImageF32& smooth, HessianImages& h, IndexRange rows,
                  WorkReport* wr = nullptr);

/// Column-restricted variant (reads smooth at cols expanded by 1, clamped
/// to smooth's edges).
void hessian_rect(const ImageF32& smooth, HessianImages& h, IndexRange rows,
                  IndexRange cols, WorkReport* wr = nullptr);

/// Ridgeness response: the largest positive Hessian eigenvalue (dark curvi-
/// linear structures on a bright background give a strong positive second
/// derivative across the ridge).  Fills rows [rows.lo, rows.hi) of `out`.
void ridgeness_rows(const HessianImages& h, ImageF32& out, IndexRange rows,
                    WorkReport* wr = nullptr);

/// Per-pixel absolute temporal difference |a - b| (the motion criterion used
/// by the registration stage).  Images must have identical dimensions.
[[nodiscard]] ImageF32 temporal_difference(const ImageF32& a,
                                           const ImageF32& b,
                                           WorkReport* wr = nullptr);

/// Bilinear sample with border clamping.  `in` may be a band holding rows
/// [row0, row0 + in.height()) of a taller image (row0 >= 0): (x, y) are that
/// image's coordinates, and rows outside the band are clamped to the band's
/// edges.  Inline so per-pixel callers (the ENH warp) pay no call.
[[nodiscard]] inline f32 bilinear_sample(const ImageF32& in, f64 x, f64 y,
                                         i32 row0 = 0) {
  const i32 w = in.width();
  // With the whole 2x2 neighbourhood inside, truncation equals floor and no
  // read needs a clamp; the result is the same either way.
  const bool inside = x >= 0.0 && x < static_cast<f64>(w - 1) &&
                      y >= static_cast<f64>(row0) &&
                      y < static_cast<f64>(row0 + in.height() - 1);
  const i32 x0 = static_cast<i32>(inside ? x : std::floor(x));
  const i32 y0 = static_cast<i32>(inside ? y : std::floor(y));
  const f32 fx = static_cast<f32>(x - x0);
  const f32 fy = static_cast<f32>(y - y0);
  f32 v00 = 0.0f;
  f32 v10 = 0.0f;
  f32 v01 = 0.0f;
  f32 v11 = 0.0f;
  if (inside) {
    const f32* p = in.row(y0 - row0) + x0;
    v00 = p[0];
    v10 = p[1];
    v01 = p[w];
    v11 = p[w + 1];
  } else {
    v00 = in.at_clamped(x0, y0 - row0);
    v10 = in.at_clamped(x0 + 1, y0 - row0);
    v01 = in.at_clamped(x0, y0 - row0 + 1);
    v11 = in.at_clamped(x0 + 1, y0 - row0 + 1);
  }
  const f32 top = v00 * (1.0f - fx) + v10 * fx;
  const f32 bot = v01 * (1.0f - fx) + v11 * fx;
  return top * (1.0f - fy) + bot * fy;
}

/// Catmull-Rom bicubic sample with border clamping — the per-pixel
/// reference that bicubic_rows reproduces bit for bit.
[[nodiscard]] f32 bicubic_sample(const ImageF32& in, f64 x, f64 y);

/// The bicubic resampling kernel behind resample_bicubic,
/// resample_bicubic_rows and zoom_rows.  Maps the source rectangle `src` of
/// `in` onto the pixel grid of `out` and fills output rows [rows.lo, rows.hi)
/// clamped to out's height.  Each pixel equals bicubic_sample at its centre's
/// source coordinate; u16 output is clamped to [0, 65535] and rounded.
/// Separable: a per-column table of clamped taps and weights, and a 4-row
/// ring holding each source row's horizontal pass once.  Disjoint row bands
/// may run concurrently.  Returns the number of rows written (0 for an
/// empty or inverted range).
i32 bicubic_rows(const ImageF32& in, Rect src, ImageF32& out, IndexRange rows);
i32 bicubic_rows(const ImageF32& in, Rect src, ImageU16& out, IndexRange rows);

/// Resample the source rectangle `src` of `in` to an out_w x out_h image with
/// bicubic interpolation (the ZOOM task).
[[nodiscard]] ImageF32 resample_bicubic(const ImageF32& in, i32 out_w,
                                        i32 out_h, Rect src,
                                        WorkReport* wr = nullptr);

/// Stripe-safe resample: fills only output rows [rows.lo, rows.hi) of the
/// pre-sized `out` (reads are unrestricted, output row bands are disjoint),
/// so concurrent stripes compose bit-identically to resample_bicubic.
void resample_bicubic_rows(const ImageF32& in, ImageF32& out, Rect src,
                           IndexRange rows, WorkReport* wr = nullptr);

/// Translate an image by a sub-pixel offset with bilinear interpolation
/// (used for motion compensation in the ENH task).
[[nodiscard]] ImageF32 translate_bilinear(const ImageF32& in, f64 dx, f64 dy,
                                          WorkReport* wr = nullptr);

/// Rigid warp with bilinear interpolation: the output is `in` transformed by
/// a rotation of `angle` radians about `center` followed by a translation of
/// (dx, dy) — i.e. out(p) = in(center + R(-angle) * (p - center - d)).
/// With angle = 0 this equals translate_bilinear.
[[nodiscard]] ImageF32 warp_rigid(const ImageF32& in, f64 dx, f64 dy,
                                  f64 angle, Point2f center,
                                  WorkReport* wr = nullptr);

}  // namespace tc::img
