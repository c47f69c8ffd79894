// ENH — enhancement by motion-compensated temporal integration.
//
// The registered frames are averaged in a *stent-aligned reference frame*:
// every incoming frame is warped once by the rigid transform defined by its
// marker couple and the reference couple (captured when integration
// (re)starts), then blended into the accumulator.  Integrating in reference
// coordinates — rather than re-warping the accumulator each frame — avoids
// cumulative resampling blur, so quantum noise integrates down while the
// stent stays sharp ("temporal integration of the registered image frames
// according to the balloon markers", paper §3).  Table 1's full-frame input
// and two full-frame float intermediates correspond to the incoming frame,
// its warped copy and the accumulator; the execution time is constant.
//
// The warp and the blend run fused, one accumulator row at a time and in
// place, so the warped copy is never materialized (it is still priced, from
// dimensions).  Rows are independent, so row bands may run concurrently.

#include <cassert>
#include <cmath>

#include "imaging/pipeline.hpp"

namespace tc::img {
namespace {

/// out(p_ref) = frame(c_cur + R(-phi) * (p_ref - c_ref)): the rigid map from
/// reference to current-frame coordinates that carries the current couple
/// onto the reference couple.
struct ReferenceWarp {
  f64 ca = 1.0;
  f64 sa = 0.0;
  Point2f c_cur;
  Point2f c_ref;
};

ReferenceWarp reference_warp(const Couple& cur, const Couple& ref) {
  const f64 cur_angle = std::atan2(cur.b.y - cur.a.y, cur.b.x - cur.a.x);
  const f64 ref_angle = std::atan2(ref.b.y - ref.a.y, ref.b.x - ref.a.x);
  const f64 phi = ref_angle - cur_angle;
  return ReferenceWarp{
      std::cos(-phi), std::sin(-phi),
      Point2f{0.5 * (cur.a.x + cur.b.x), 0.5 * (cur.a.y + cur.b.y)},
      Point2f{0.5 * (ref.a.x + ref.b.x), 0.5 * (ref.a.y + ref.b.y)}};
}

/// Warp rows [rows.lo, rows.hi) of `frame` into reference coordinates and
/// store them in `acc` (restart) or blend them in: acc = (1 - g) acc + g w.
void integrate_rows(const ImageF32& frame, const ReferenceWarp& m,
                    bool restart, f32 g, ImageF32& acc, IndexRange rows) {
  for (i32 y = rows.lo; y < rows.hi; ++y) {
    const f64 ry = static_cast<f64>(y) - m.c_ref.y;
    const f64 sa_ry = m.sa * ry;
    const f64 ca_ry = m.ca * ry;
    f32* out = acc.row(y);
    for (i32 x = 0; x < frame.width(); ++x) {
      const f64 rx = static_cast<f64>(x) - m.c_ref.x;
      const f32 v = bilinear_sample(frame, m.c_cur.x + m.ca * rx - sa_ry,
                                    m.c_cur.y + m.sa * rx + ca_ry);
      out[x] = restart ? v : (1.0f - g) * out[x] + g * v;
    }
  }
}

}  // namespace

EnhanceResult enhance(const ImageF32& cur_frame, Rect roi,
                      ImageF32 accumulator, const Couple& cur_couple,
                      const Couple& ref_couple, const EnhanceParams& params,
                      const RowBandRunner& bands) {
  EnhanceResult result;
  WorkReport& work = result.work;
  const i32 w = cur_frame.width();
  const i32 h = cur_frame.height();
  Rect r = clamp_rect(roi, w, h);
  assert(!r.empty());

  // (Re)start integration when there is no accumulator of the frame's size:
  // the accumulator then adopts the warped frame.
  const bool restart = accumulator.empty() || accumulator.width() != w ||
                       accumulator.height() != h;
  if (restart) accumulator.ensure(w, h);
  const ReferenceWarp warp = reference_warp(cur_couple, ref_couple);
  const auto body = [&](IndexRange rows) {
    integrate_rows(cur_frame, warp, restart, params.integration_gain,
                   accumulator, rows);
  };
  if (bands) {
    bands(h, body);
  } else {
    body(IndexRange{0, h});
  }

  const u64 frame_pixels = cur_frame.size();
  work.pixel_ops += frame_pixels * 22;  // the warp
  work.bytes_read += frame_pixels * 4 * sizeof(f32);
  work.bytes_written += frame_pixels * sizeof(f32);
  if (restart) {
    work.bytes_written += frame_pixels * sizeof(f32);
  } else {
    work.pixel_ops += frame_pixels * 3;  // the blend
    work.bytes_read += 2 * frame_pixels * sizeof(f32);
    work.bytes_written += frame_pixels * sizeof(f32);
    work.intermediate_bytes += frame_pixels * sizeof(f32);  // warped copy
  }

  result.enhanced_roi = accumulator.crop(r);
  work.bytes_read += result.enhanced_roi.bytes();
  work.bytes_written += result.enhanced_roi.bytes();

  work.input_bytes += frame_pixels * sizeof(u16);
  work.intermediate_bytes += accumulator.bytes();
  work.output_bytes += result.enhanced_roi.bytes();
  work.data_parallel = true;
  result.accumulator = std::move(accumulator);
  return result;
}

EnhanceResult enhance(const ImageF32& cur_frame, Rect roi,
                      ImageF32 accumulator, f64 dx, f64 dy,
                      const EnhanceParams& params) {
  // Translation-only compatibility wrapper: synthesize couples so that the
  // current frame is shifted by (-dx, -dy) into the accumulator's frame.
  Couple cur{Point2f{100.0 + dx, 100.0 + dy},
             Point2f{200.0 + dx, 100.0 + dy}, 1.0};
  Couple ref{Point2f{100.0, 100.0}, Point2f{200.0, 100.0}, 1.0};
  return enhance(cur_frame, roi, std::move(accumulator), cur, ref, params);
}

}  // namespace tc::img
