// RDG — ridge detection & filtering.
//
// Pipeline: Gaussian pre-smoothing (sub-stage A) → Hessian by central
// differences (sub-stage B) → eigenvalue analysis (sub-stage C) →
// structure filtering (sub-stage D).  A-C are the buffers whose space-time
// occupation Fig. 5 of the paper analyses; D confirms candidate ridge
// pixels by sampling the response along the local ridge orientation and
// attenuates isolated (noise) responses — its work scales with the number
// of candidate pixels, which is what makes the RDG execution time depend on
// the video content (Fig. 3).

#include <algorithm>
#include <cmath>

#include "imaging/pipeline.hpp"

namespace tc::img {
namespace {

/// Extra rows needed around a stripe so sub-stage D's along-ridge sampling
/// (radius 3) sees identical response values in serial and striped runs.
constexpr i32 kFilterHalo = 3;

/// Output rows [y0, y1) of a ridge_detect_rows call (y1 <= y0: nothing to
/// do) and the band [b0, b1) its scratch planes hold: the output rows plus
/// the kFilterHalo + 1 rows sub-stage D's along-ridge sampling reads beyond
/// them (bilinear interpolation adds one row).
struct RowBand {
  Rect roi;
  i32 y0 = 0;
  i32 y1 = 0;
  i32 b0 = 0;
  i32 b1 = 0;
};

RowBand row_band(const ImageF32& frame, Rect roi, IndexRange rows) {
  RowBand g;
  g.roi = clamp_rect(roi, frame.width(), frame.height());
  if (g.roi.empty()) return g;
  g.y0 = std::clamp(rows.lo, g.roi.y, g.roi.y + g.roi.h);
  g.y1 = std::clamp(rows.hi, g.roi.y, g.roi.y + g.roi.h);
  g.b0 = std::max(0, g.y0 - kFilterHalo - 1);
  g.b1 = std::min(frame.height(), g.y1 + kFilterHalo + 1);
  return g;
}

}  // namespace

void RidgeScratch::ensure_for(const ImageF32& frame, Rect roi,
                              IndexRange rows) {
  const RowBand g = row_band(frame, roi, rows);
  if (g.y1 > g.y0) ensure(frame.width(), g.b1 - g.b0);
}

void RidgeScratch::ensure(i32 width, i32 rows) {
  smooth.ensure(width, rows);
  resp_local.ensure(width, rows);
  blob_local.ensure(width, rows);
  hess.xx.ensure(width, rows);
  hess.xy.ensure(width, rows);
  hess.yy.ensure(width, rows);
}

void ridge_detect_rows(const ImageF32& frame, Rect roi,
                       const RidgeParams& params, ImageF32& response,
                       ImageF32& blobness, IndexRange rows,
                       u64& dominant_pixels, WorkReport& work,
                       RidgeScratch* scratch) {
  const RowBand g = row_band(frame, roi, rows);
  const Rect r = g.roi;
  const i32 y0 = g.y0;
  const i32 y1 = g.y1;
  if (y1 <= y0) return;

  // Working buffers: caller-provided scratch (allocation-free in steady
  // state) or a fresh local set.  Every plane holds the band [b0, b1) at
  // full frame width.  Plane row y - b0 is frame row y.  A band edge inside the
  // frame lies beyond every read, so clamping at the band's edges reads the
  // pixels clamping at the frame's edges would.  Stale scratch only matters
  // for the response plane — D's along-ridge reads there reach beyond the
  // ROI and the extended band and must see the zeros a serial run sees — so
  // it is cleared; every other read falls inside freshly written pixels.
  RidgeScratch local;
  RidgeScratch& buf = scratch != nullptr ? *scratch : local;
  const i32 b0 = g.b0;
  buf.ensure(frame.width(), g.b1 - b0);
  buf.resp_local.fill(0.0f);

  // Extended band: the output band plus the filtering halo, clamped to the
  // ROI so serial and striped runs see identical (zero) values outside it.
  const i32 ey0 = std::max(r.y, y0 - kFilterHalo);
  const i32 ey1 = std::min(r.y + r.h, y1 + kFilterHalo);

  // Sub-stage A: smooth the extended band (one extra pixel of halo in both
  // directions for the Hessian's central differences).
  ImageF32& smooth = buf.smooth;
  gaussian_blur_rect(frame, params.sigma, smooth, IndexRange{ey0 - 1, ey1 + 1},
                     IndexRange{r.x - 1, r.x + r.w + 1}, &work, b0);

  // Sub-stage B: Hessian of the smoothed band.
  HessianImages& hess = buf.hess;
  hessian_rect(smooth, hess, IndexRange{ey0 - b0, ey1 - b0},
               IndexRange{r.x, r.x + r.w}, &work);

  // Sub-stage C: eigenvalues → ridgeness (lambda_max) and blobness
  // (lambda_min clamped at zero) over the extended band, into local images
  // so a striped run never races on the shared outputs.
  ImageF32& resp_local = buf.resp_local;
  ImageF32& blob_local = buf.blob_local;
  for (i32 y = ey0 - b0; y < ey1 - b0; ++y) {
    for (i32 x = r.x; x < r.x + r.w; ++x) {
      f32 xx = hess.xx.at(x, y);
      f32 yy = hess.yy.at(x, y);
      f32 xy = hess.xy.at(x, y);
      f32 tr = xx + yy;
      f32 det_term = std::sqrt((xx - yy) * (xx - yy) + 4.0f * xy * xy);
      f32 lmax = 0.5f * (tr + det_term);
      f32 lmin = 0.5f * (tr - det_term);
      resp_local.at(x, y) = lmax > 0.0f ? lmax : 0.0f;
      blob_local.at(x, y) = lmin > 0.0f ? lmin : 0.0f;
    }
  }
  u64 ext_pixels = static_cast<u64>(r.w) * static_cast<u64>(ey1 - ey0);
  work.pixel_ops += ext_pixels * 12;
  work.bytes_read += ext_pixels * 3 * sizeof(f32);
  work.bytes_written += ext_pixels * 2 * sizeof(f32);

  // Sub-stage D: structure filtering over the output band.  Candidate
  // pixels (response above a fraction of the dominant threshold) are
  // confirmed by sampling the response at +-1..3 pixels along the local
  // ridge orientation; isolated (noise) responses are attenuated.  The work
  // of this stage is proportional to the candidate count — the content-
  // dependent part of the RDG execution time.
  const f32 candidate_floor = 0.3f * params.dominant_threshold;
  u64 candidates = 0;
  for (i32 y = y0; y < y1; ++y) {
    const i32 by = y - b0;
    for (i32 x = r.x; x < r.x + r.w; ++x) {
      f32 resp = resp_local.at(x, by);
      f32 out = resp;
      if (resp > candidate_floor) {
        ++candidates;
        // Principal-curvature direction from the Hessian; the ridge runs
        // perpendicular to it.
        f32 xx = hess.xx.at(x, by);
        f32 yy = hess.yy.at(x, by);
        f32 xy = hess.xy.at(x, by);
        f32 theta = 0.5f * std::atan2(2.0f * xy, xx - yy);
        f32 dx = -std::sin(theta);
        f32 dy = std::cos(theta);
        f32 acc = 0.0f;
        for (i32 s = -3; s <= 3; ++s) {
          if (s == 0) continue;
          acc += bilinear_sample(resp_local,
                                 static_cast<f64>(x) + dx * static_cast<f32>(s),
                                 static_cast<f64>(y) + dy * static_cast<f32>(s),
                                 b0);
        }
        f32 along_mean = acc / 6.0f;
        if (along_mean < 0.4f * resp) {
          out = resp * 0.25f;  // isolated spike: not a ridge, attenuate
        }
      }
      response.at(x, y) = out;
      blobness.at(x, y) = blob_local.at(x, by);
      if (out > params.dominant_threshold) ++dominant_pixels;
    }
  }
  work.pixel_ops += candidates * 110;
  work.bytes_read += candidates * 8 * sizeof(f32);
  work.items += candidates;

  // Buffer accounting attributed to the stripe proportionally: input band of
  // the u16 frame, smoothed + response/blobness working images.
  f64 frac = static_cast<f64>(y1 - y0) / static_cast<f64>(r.h);
  u64 roi_pixels = static_cast<u64>(r.area());
  work.input_bytes +=
      static_cast<u64>(static_cast<f64>(roi_pixels * sizeof(u16)) * frac);
  work.intermediate_bytes +=
      static_cast<u64>(static_cast<f64>(roi_pixels * sizeof(f32)) * frac);
  work.output_bytes +=
      static_cast<u64>(static_cast<f64>(roi_pixels * 2 * sizeof(f32)) * frac);
}

RidgeResult ridge_detect(const ImageF32& frame, Rect roi,
                         const RidgeParams& params) {
  RidgeResult result;
  result.response = ImageF32(frame.width(), frame.height(), 0.0f);
  result.blobness = ImageF32(frame.width(), frame.height(), 0.0f);
  Rect r = clamp_rect(roi, frame.width(), frame.height());
  ridge_detect_rows(frame, r, params, result.response, result.blobness,
                    IndexRange{r.y, r.y + r.h}, result.dominant_pixels,
                    result.work);
  result.work.data_parallel = true;
  return result;
}

}  // namespace tc::img
